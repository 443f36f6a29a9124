// Tests for the scenario fuzzer (src/scenario/fuzz) and the runtime
// conservation invariants (src/core/invariants): generator validity over
// 200 seeds (every generated spec parses, round-trips and passes the
// runner's semantic validation), shrinker convergence, hand-built
// invariant violations the checker must flag, the config-matrix oracle on
// a few seeds, and replay of the committed regression scenarios with full
// checks on.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/invariants.h"
#include "core/network.h"
#include "scenario/fuzz.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace lazyctrl::scenario {
namespace {

// ------------------------------------------------------------- generator

TEST(FuzzGeneratorTest, TwoHundredSeedsAreValidAndRoundTrip) {
  FuzzOptions opt;
  opt.scale = 0.05;  // validation cost only; flows are never replayed here
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const ScenarioSpec spec = generate_scenario(seed, opt);
    EXPECT_EQ(spec.name, "fuzz_" + std::to_string(seed));

    // The serialized form must parse back to the identical spec, and the
    // parser's cross-event validation must accept it (no recovery before
    // its failure, sane tenant lifecycles, everything inside the horizon).
    const std::string text = serialize_scenario(spec);
    const ParseResult r = parse_scenario(text);
    ASSERT_TRUE(r.ok()) << "seed " << seed << ":\n"
                        << r.error_text() << "\n"
                        << text;
    EXPECT_TRUE(spec == r.spec) << "seed " << seed;

    // And the runner's semantic validation (topology-aware checks the
    // parser cannot do) must accept it too.
    ScenarioRunner runner(spec);
    std::string error;
    EXPECT_TRUE(runner.validate_only(&error))
        << "seed " << seed << ": " << error;
  }
}

TEST(FuzzGeneratorTest, DeterministicPerSeedAndDistinctAcrossSeeds) {
  const ScenarioSpec a = generate_scenario(11);
  const ScenarioSpec b = generate_scenario(11);
  EXPECT_TRUE(a == b);

  // Not every pair differs in every field, but across a handful of seeds
  // the generator must not collapse to one spec.
  bool any_difference = false;
  for (std::uint64_t seed = 12; seed <= 16 && !any_difference; ++seed) {
    any_difference = !(generate_scenario(seed) == a);
  }
  EXPECT_TRUE(any_difference);
}

// -------------------------------------------------------------- shrinker

TEST(FuzzShrinkerTest, ConvergesToThePlantedEvent) {
  // Plant a uniquely identifiable event in a busy generated script; a
  // predicate that only cares about that event must shrink the script to
  // exactly it (greedy deletion keeps what reproduction depends on).
  constexpr SimDuration kMagic = 1234 * kSecond;
  ScenarioSpec spec = generate_scenario(1);
  ASSERT_GE(spec.events.size(), 3u);
  spec.events.push_back({.at = 5 * kMinute,
                         .kind = EventKind::kControllerOutage,
                         .duration = kMagic});

  std::size_t probes = 0;
  const ScenarioSpec shrunk =
      shrink_scenario(spec, [&](const ScenarioSpec& candidate) {
        ++probes;
        return std::any_of(candidate.events.begin(), candidate.events.end(),
                           [&](const ScenarioEvent& e) {
                             return e.kind == EventKind::kControllerOutage &&
                                    e.duration == kMagic;
                           });
      });
  ASSERT_EQ(shrunk.events.size(), 1u);
  EXPECT_EQ(shrunk.events[0].kind, EventKind::kControllerOutage);
  EXPECT_EQ(shrunk.events[0].duration, kMagic);
  EXPECT_GT(probes, 0u);
}

TEST(FuzzShrinkerTest, KeepsEverythingWhenNothingCanBeDropped) {
  ScenarioSpec spec = generate_scenario(1);
  const std::size_t before = spec.events.size();
  ASSERT_GE(before, 2u);
  const ScenarioSpec shrunk = shrink_scenario(
      spec, [&](const ScenarioSpec& c) { return c.events.size() == before; });
  EXPECT_EQ(shrunk.events.size(), before);
}

// ---------------------------------------------------- invariant checker

const char* kTinySpec = R"(
[scenario]
name = invariants_test
seed = 3

[topology]
switches = 12
tenants = 6
min_vms_per_tenant = 2
max_vms_per_tenant = 4
vms_per_switch = 4

[workload]
kind = real_like
flows = 600
horizon = 10m
profile = flat

[config]
mode = lazyctrl
group_size_limit = 4
stats_window = 30s
)";

std::unique_ptr<ScenarioRunner> run_tiny() {
  const ParseResult r = parse_scenario(kTinySpec);
  EXPECT_TRUE(r.ok()) << r.error_text();
  auto runner = std::make_unique<ScenarioRunner>(r.spec);
  std::string error;
  EXPECT_TRUE(runner->run(&error)) << error;
  return runner;
}

TEST(InvariantCheckerTest, CleanRunPasses) {
  const auto runner = run_tiny();
  const core::InvariantReport report =
      core::check_invariants(runner->network());
  EXPECT_TRUE(report.ok()) << report.text();
}

TEST(InvariantCheckerTest, CleanMigrationRunPasses) {
  // Live migrations re-sync the two changed switches' columns in their
  // groups' G-FIB banks; skipping that re-sync leaves a stale column the
  // no-false-negative check must report. No regrouping, so nothing else
  // rebuilds a bank behind the migrations' back.
  const ParseResult r = parse_scenario(std::string(kTinySpec) + R"(
dgm.mode = off

[events]
at=2m migration_burst hosts=10 spread=4m
)");
  ASSERT_TRUE(r.ok()) << r.error_text();
  ScenarioRunner runner(r.spec);
  std::string error;
  ASSERT_TRUE(runner.run(&error)) << error;
  // The burst really moved hosts (same topology seed, no events).
  const auto unmoved = run_tiny();
  std::size_t moved = 0;
  for (const topo::HostInfo& h : runner.network().topology().hosts()) {
    moved += h.attached_switch !=
             unmoved->network().topology().host_info(h.id).attached_switch;
  }
  ASSERT_GT(moved, 0u);
  const core::InvariantReport report =
      core::check_invariants(runner.network());
  EXPECT_TRUE(report.ok()) << report.text();
}

TEST(InvariantCheckerTest, FlagsStaleGfibColumn) {
  auto runner = run_tiny();
  core::Network& net = runner->network();
  // A host attached behind the control plane's back: no re-sync, so its
  // switch's column in the group bank cannot match it.
  const HostId silent =
      net.add_silent_host(TenantId{0}, net.grouping().members()[0].front());
  const core::InvariantReport report = core::check_invariants(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.text().find("misses host " +
                               std::to_string(silent.value())),
            std::string::npos)
      << report.text();
}

TEST(InvariantCheckerTest, FlagsUnaccountedFlow) {
  auto runner = run_tiny();
  ++runner->network().metrics().flows_seen;  // a flow nobody delivered
  const core::InvariantReport report =
      core::check_invariants(runner->network());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.text().find("flow conservation"), std::string::npos)
      << report.text();
}

TEST(InvariantCheckerTest, FlagsPhantomDegradedFlow) {
  auto runner = run_tiny();
  // A degraded count with no matching flow breaks the generalized
  // conservation identity (delivered + degraded + dropped == seen).
  ++runner->network().metrics().flows_degraded;
  const core::InvariantReport report =
      core::check_invariants(runner->network());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.text().find("flow conservation"), std::string::npos)
      << report.text();
}

TEST(InvariantCheckerTest, FlagsDroppedFlowInLazyCtrl) {
  auto runner = run_tiny();
  // LazyCtrl never drops: an exhausted punt must degrade to flooding, so
  // a non-zero drop count is a bug even if conservation still balances.
  core::RunMetrics& m = runner->network().metrics();
  ++m.flows_seen;
  ++m.flows_dropped;
  const core::InvariantReport report =
      core::check_invariants(runner->network());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.text().find("degrade"), std::string::npos)
      << report.text();
}

TEST(InvariantCheckerTest, FlagsAdmissionDropMismatch) {
  auto runner = run_tiny();
  // The RunMetrics counter must stay in lockstep with the controller's
  // own admission_drops() — a divergence means an unaccounted reject.
  ++runner->network().metrics().ctrl_admission_drops;
  const core::InvariantReport report =
      core::check_invariants(runner->network());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.text().find("admission"), std::string::npos)
      << report.text();
}

TEST(InvariantCheckerTest, FlagsRuleLeakedPastTenantDeparture) {
  auto runner = run_tiny();
  core::Network& net = runner->network();
  ASSERT_TRUE(net.deactivate_tenant(TenantId{1}));

  // Hand-install a live rule toward one of the departed tenant's hosts —
  // exactly the leak deactivate_tenant() must prevent.
  const auto& topo = net.topology();
  HostId leaked;
  for (std::uint32_t h = 0; h < topo.host_count(); ++h) {
    if (topo.host_info(HostId{h}).tenant == TenantId{1}) {
      leaked = HostId{h};
      break;
    }
  }
  ASSERT_TRUE(leaked.valid());
  const topo::HostInfo& info = topo.host_info(leaked);
  openflow::FlowRule rule;
  rule.match.tenant = info.tenant;
  rule.match.dst_mac = info.mac;
  rule.action.type = openflow::ActionType::kForwardLocal;
  net.edge_switch(info.attached_switch).flow_table().install(rule);

  const core::InvariantReport report = core::check_invariants(net);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.text().find("rule hygiene"), std::string::npos)
      << report.text();
}

// ------------------------------------------------------------- end to end

TEST(FuzzHarnessTest, SmokeSeedPassesAllChecks) {
  FuzzOptions opt;
  opt.scale = 0.1;
  const FuzzRunResult r =
      run_scenario_with_checks(generate_scenario(1, opt));
  EXPECT_TRUE(r.ok()) << r.failure_text();
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(r.deterministic);
}

TEST(FuzzHarnessTest, ConfigMatrixIsIdenticalOnSeveralSeeds) {
  // fib.layout x runtime.num_shards only change how a run executes, never
  // what it computes.
  FuzzOptions opt;
  opt.scale = 0.1;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EXPECT_EQ(check_config_matrix(generate_scenario(seed, opt)), "")
        << "seed " << seed;
  }
}

TEST(FuzzHarnessTest, RegressionScenariosPassChecks) {
  // Every shrunk repro committed under examples/scenarios/regressions/
  // documents a fixed bug; replaying it with full checks on pins the fix.
  namespace fs = std::filesystem;
  fs::path dir;
  for (const char* candidate :
       {"../examples/scenarios/regressions", "examples/scenarios/regressions"}) {
    if (fs::is_directory(candidate)) {
      dir = candidate;
      break;
    }
  }
  if (dir.empty()) GTEST_SKIP() << "regressions directory not found";

  std::size_t replayed = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const ParseResult r = parse_scenario(text.str());
    ASSERT_TRUE(r.ok()) << entry.path() << ":\n" << r.error_text();
    EXPECT_EQ(r.spec.name, entry.path().stem().string()) << entry.path();
    const FuzzRunResult result = run_scenario_with_checks(r.spec);
    EXPECT_TRUE(result.ok())
        << entry.path() << ":\n"
        << result.failure_text();
    ++replayed;
  }
  EXPECT_GE(replayed, 1u);  // regroup_renumber_gfib.scn at minimum
}

}  // namespace
}  // namespace lazyctrl::scenario
