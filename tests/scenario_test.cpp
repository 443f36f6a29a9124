// Tests for the declarative scenario engine (src/scenario): the .scn
// parser (valid specs, line-numbered diagnostics, serialize/parse round
// trip, overrides) and the ScenarioRunner's determinism contract (same
// spec -> bit-identical RunMetrics, run to run and across shard counts).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace lazyctrl::scenario {
namespace {

// ---------------------------------------------------------------- parser

constexpr const char* kFullSpec = R"(# full-featured scenario
[scenario]
name = everything
description = exercises every section
seed = 42

[topology]
switches = 24
tenants = 12
min_vms_per_tenant = 4
max_vms_per_tenant = 10
vms_per_switch = 8

[workload]
kind = synthetic
flows = 3000
horizon = 30m
profile = flat
p = 70
q = 20

[config]
mode = lazyctrl
group_size_limit = 6
stats_window = 30s
dgm.mode = periodic
dgm.maintenance_period = 5m
runtime.num_shards = 2
fib.layout = linear
rules.rule_ttl = 90s
failover = true
controller.servers = 2
ctrl.loss_rate = 0.05
ctrl.dup_rate = 0.01
ctrl.queue_cap = 8
ctrl.punt_retry_limit = 4
ctrl.punt_retry_base = 3ms
ctrl.reconcile_period = 5m
latency.control_link = 250us

[events]
at=5m fail_switch sw=3          # comment after an event
at=6m recover_switch sw=3
at=10m controller_outage duration=20s
at=12m migration_burst hosts=5 spread=30s
at=15m traffic_surge factor=2.5 duration=5m
at=20m force_regroup
at=21m set_control_loss rate=0.1
at=22m set_control_dup rate=0.02
at=23m set_ctrl_queue_cap cap=16
at=24m reconcile
)";

TEST(ScenarioSpecTest, ParsesFullSpec) {
  const ParseResult r = parse_scenario(kFullSpec);
  ASSERT_TRUE(r.ok()) << r.error_text();
  const ScenarioSpec& s = r.spec;

  EXPECT_EQ(s.name, "everything");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.topology.switches, 24u);
  EXPECT_EQ(s.topology.tenants, 12u);
  EXPECT_EQ(s.workload.kind, WorkloadKind::kSynthetic);
  EXPECT_EQ(s.workload.flows, 3000u);
  EXPECT_EQ(s.workload.horizon, 30 * kMinute);
  EXPECT_TRUE(s.workload.flat_profile);
  EXPECT_DOUBLE_EQ(s.workload.p, 70.0);
  EXPECT_EQ(s.config.grouping.group_size_limit, 6u);
  EXPECT_EQ(s.config.grouping.stats_window, 30 * kSecond);
  EXPECT_EQ(s.config.dgm.mode, core::DgmMode::kPeriodic);
  EXPECT_EQ(s.config.runtime.num_shards, 2u);
  EXPECT_EQ(s.config.fib.layout, core::GFibLayout::kLinear);
  EXPECT_EQ(s.config.rules.rule_ttl, 90 * kSecond);
  EXPECT_TRUE(s.config.failover_enabled);
  EXPECT_EQ(s.config.controller.servers, 2u);
  EXPECT_DOUBLE_EQ(s.config.controller.loss_rate, 0.05);
  EXPECT_DOUBLE_EQ(s.config.controller.dup_rate, 0.01);
  EXPECT_EQ(s.config.controller.queue_cap, 8u);
  EXPECT_EQ(s.config.controller.punt_retry_limit, 4u);
  EXPECT_EQ(s.config.controller.punt_retry_base, 3 * kMillisecond);
  EXPECT_EQ(s.config.controller.reconcile_period, 5 * kMinute);
  EXPECT_EQ(s.config.latency.control_link, 250 * kMicrosecond);

  ASSERT_EQ(s.events.size(), 10u);
  EXPECT_EQ(s.events[0].kind, EventKind::kFailSwitch);
  EXPECT_EQ(s.events[0].at, 5 * kMinute);
  EXPECT_EQ(s.events[0].sw, 3u);
  EXPECT_EQ(s.events[2].kind, EventKind::kControllerOutage);
  EXPECT_EQ(s.events[2].duration, 20 * kSecond);
  EXPECT_EQ(s.events[3].kind, EventKind::kMigrationBurst);
  EXPECT_EQ(s.events[3].hosts, 5u);
  EXPECT_EQ(s.events[3].spread, 30 * kSecond);
  EXPECT_EQ(s.events[4].kind, EventKind::kTrafficSurge);
  EXPECT_DOUBLE_EQ(s.events[4].factor, 2.5);
  EXPECT_EQ(s.events[5].kind, EventKind::kForceRegroup);
  EXPECT_EQ(s.events[6].kind, EventKind::kSetControlLoss);
  EXPECT_DOUBLE_EQ(s.events[6].rate, 0.1);
  EXPECT_EQ(s.events[7].kind, EventKind::kSetControlDup);
  EXPECT_DOUBLE_EQ(s.events[7].rate, 0.02);
  EXPECT_EQ(s.events[8].kind, EventKind::kSetCtrlQueueCap);
  EXPECT_EQ(s.events[8].cap, 16u);
  EXPECT_EQ(s.events[9].kind, EventKind::kReconcile);
}

TEST(ScenarioSpecTest, RejectsMalformedControlFaultParameters) {
  const std::string text =
      "[config]\n"                          // 1
      "ctrl.loss_rate = 1.5\n"              // 2: probability > 1
      "[events]\n"                          // 3
      "at=1m set_control_loss rate=-0.1\n"  // 4: negative probability
      "at=2m set_control_loss\n"            // 5: missing rate=
      "at=3m set_ctrl_queue_cap\n";         // 6: missing cap=
  const ParseResult r = parse_scenario(text);
  ASSERT_EQ(r.errors.size(), 4u) << r.error_text();
  EXPECT_EQ(r.errors[0].line, 2);
  EXPECT_EQ(r.errors[1].line, 4);
  EXPECT_EQ(r.errors[2].line, 5);
  EXPECT_NE(r.errors[2].message.find("requires rate="), std::string::npos);
  EXPECT_EQ(r.errors[3].line, 6);
  EXPECT_NE(r.errors[3].message.find("requires cap="), std::string::npos);
}

TEST(ScenarioSpecTest, UnknownKeyReportsLineNumber) {
  const std::string text =
      "[scenario]\n"      // line 1
      "name = x\n"        // line 2
      "[config]\n"        // line 3
      "mode = lazyctrl\n" // line 4
      "no_such_knob = 1\n";  // line 5
  const ParseResult r = parse_scenario(text);
  ASSERT_EQ(r.errors.size(), 1u) << r.error_text();
  EXPECT_EQ(r.errors[0].line, 5);
  EXPECT_NE(r.errors[0].message.find("no_such_knob"), std::string::npos);
}

TEST(ScenarioSpecTest, RemovedShardModeKeyIsAnUnknownKey) {
  // The sharded runtime has one mode and no sync window, and replay has
  // no flow batch size (one span rule for any shard count); IncUpdate's
  // flag, spacing and evidence floor folded into dgm.mode, dgm.cooldown
  // and dgm.min_flow_evidence. The old keys are not silently accepted but
  // diagnosed like any other unknown key.
  for (const std::string key :
       {"runtime.mode", "runtime.sync_window", "batching.flow_batch_size",
        "dynamic_regrouping", "min_update_interval",
        "min_update_flow_evidence"}) {
    SCOPED_TRACE(key);
    const std::string text =
        "[scenario]\n"                 // 1
        "name = x\n"                   // 2
        "[config]\n"                   // 3
        "runtime.num_shards = 2\n" +   // 4
        key + " = 1s\n";               // 5
    const ParseResult r = parse_scenario(text);
    ASSERT_EQ(r.errors.size(), 1u) << r.error_text();
    EXPECT_EQ(r.errors[0].line, 5);
    EXPECT_NE(r.errors[0].message.find("unknown [config] key '" + key + "'"),
              std::string::npos)
        << r.errors[0].message;
  }
}

TEST(ScenarioSpecTest, RemovedShardModeOverrideIsRejected) {
  // --set config.<key>=... goes through the same key dispatch.
  for (const std::string key :
       {"runtime.mode", "runtime.sync_window", "batching.flow_batch_size",
        "dynamic_regrouping", "min_update_interval",
        "min_update_flow_evidence"}) {
    SCOPED_TRACE(key);
    ScenarioSpec spec;
    std::string err;
    EXPECT_FALSE(apply_override(spec, "config." + key + "=1s", &err));
    EXPECT_NE(err.find("unknown [config] key '" + key + "'"),
              std::string::npos)
        << err;
  }
}

TEST(ScenarioSpecTest, RegroupFractionsMustBeInUnitRange) {
  // A negative dgm.min_gain_fraction lets DGM apply plans that cut
  // nothing, and the traffic monitor clamps a decay outside [0, 1].
  for (const std::string key :
       {"dgm.min_gain_fraction", "dgm.inter_fraction_limit",
        "dgm.degradation_floor", "intensity_ewma_decay"}) {
    for (const std::string value : {"-3", "-0.01", "1.5"}) {
      SCOPED_TRACE(key + " = " + value);
      const std::string text =
          "[scenario]\n"     // 1
          "name = x\n"       // 2
          "[config]\n"       // 3
          "mode = lazyctrl\n"  // 4
          + key + " = " + value + "\n";  // 5
      const ParseResult r = parse_scenario(text);
      ASSERT_EQ(r.errors.size(), 1u) << r.error_text();
      EXPECT_EQ(r.errors[0].line, 5);
      EXPECT_NE(r.errors[0].message.find("a number in [0, 1]"),
                std::string::npos)
          << r.errors[0].message;

      ScenarioSpec spec;
      const ScenarioSpec before = spec;
      std::string err;
      EXPECT_FALSE(apply_override(spec, "config." + key + "=" + value, &err));
      EXPECT_NE(err.find("a number in [0, 1]"), std::string::npos) << err;
      EXPECT_TRUE(spec == before);
    }
    for (const std::string value : {"0", "1"}) {
      ScenarioSpec spec;
      std::string err;
      EXPECT_TRUE(apply_override(spec, "config." + key + "=" + value, &err))
          << key << " = " << value << ": " << err;
    }
  }
}

TEST(ScenarioSpecTest, EveryRegroupModeRoundTrips) {
  for (const char* mode :
       {"off", "controller_load", "periodic", "drift_triggered"}) {
    SCOPED_TRACE(mode);
    const ParseResult r =
        parse_scenario(std::string("[config]\ndgm.mode = ") + mode + "\n");
    ASSERT_TRUE(r.ok()) << r.error_text();
    const std::string canonical = serialize_scenario(r.spec);
    EXPECT_NE(canonical.find(std::string("\ndgm.mode = ") + mode + "\n"),
              std::string::npos);
    const ParseResult rt = parse_scenario(canonical);
    ASSERT_TRUE(rt.ok()) << rt.error_text();
    EXPECT_TRUE(r.spec == rt.spec);
  }
  EXPECT_EQ(ScenarioSpec{}.config.dgm.mode, core::DgmMode::kControllerLoad);
}

TEST(ScenarioSpecTest, CollectsMultipleDiagnostics) {
  const std::string text =
      "[scenario]\n"              // 1
      "seed = minus_one\n"        // 2: bad value
      "[workload]\n"              // 3
      "kind = quantum\n"          // 4: bad enum
      "[events]\n"                // 5
      "fail_switch sw=1\n"        // 6: missing at=
      "at=5m warp_core_breach\n"  // 7: unknown event
      "at=6m fail_switch\n";      // 8: missing sw=
  const ParseResult r = parse_scenario(text);
  ASSERT_EQ(r.errors.size(), 5u) << r.error_text();
  EXPECT_EQ(r.errors[0].line, 2);
  EXPECT_EQ(r.errors[1].line, 4);
  EXPECT_EQ(r.errors[2].line, 6);
  EXPECT_NE(r.errors[2].message.find("at=<time>"), std::string::npos);
  EXPECT_EQ(r.errors[3].line, 7);
  EXPECT_NE(r.errors[3].message.find("warp_core_breach"), std::string::npos);
  EXPECT_EQ(r.errors[4].line, 8);
  EXPECT_NE(r.errors[4].message.find("requires sw="), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsMalformedEventParameters) {
  const std::string text =
      "[events]\n"                                    // 1
      "at=1m controller_outage duration=-5s\n"        // 2: negative
      "at=2m traffic_surge factor=0.5 duration=1m\n"  // 3: factor <= 1
      "at=3m fail_switch sw=2 duration=5s\n";         // 4: param not valid
  const ParseResult r = parse_scenario(text);
  ASSERT_EQ(r.errors.size(), 3u) << r.error_text();
  EXPECT_EQ(r.errors[0].line, 2);
  EXPECT_EQ(r.errors[1].line, 3);
  EXPECT_EQ(r.errors[2].line, 4);
  EXPECT_NE(r.errors[2].message.find("not valid"), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsIndexValuesBeyondUint32) {
  // A u64 that would truncate to a plausible small index must error,
  // not silently target the wrong switch.
  const ParseResult r = parse_scenario(
      "[events]\nat=1m fail_switch sw=4294967299\n");
  ASSERT_EQ(r.errors.size(), 1u) << r.error_text();
  EXPECT_EQ(r.errors[0].line, 2);
  EXPECT_NE(r.errors[0].message.find("switch index"), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsUnknownSectionAndStrayContent) {
  const std::string text =
      "stray = 1\n"     // 1: before any section
      "[warp]\n"        // 2: unknown section
      "speed = 9\n"     // 3: swallowed silently (section already flagged)
      "[scenario]\n"    // 4
      "name = ok\n";    // 5
  const ParseResult r = parse_scenario(text);
  ASSERT_EQ(r.errors.size(), 2u) << r.error_text();
  EXPECT_EQ(r.errors[0].line, 1);
  EXPECT_EQ(r.errors[1].line, 2);
  EXPECT_EQ(r.spec.name, "ok");
}

TEST(ScenarioSpecTest, DurationGrammar) {
  SimDuration d = 0;
  EXPECT_TRUE(parse_duration("250ns", &d));
  EXPECT_EQ(d, 250 * kNanosecond);
  EXPECT_TRUE(parse_duration("15us", &d));
  EXPECT_EQ(d, 15 * kMicrosecond);
  EXPECT_TRUE(parse_duration("200ms", &d));
  EXPECT_EQ(d, 200 * kMillisecond);
  EXPECT_TRUE(parse_duration("90", &d));  // bare number = seconds
  EXPECT_EQ(d, 90 * kSecond);
  EXPECT_TRUE(parse_duration("1.5h", &d));
  EXPECT_EQ(d, 90 * kMinute);
  EXPECT_TRUE(parse_duration("0s", &d));
  EXPECT_EQ(d, 0);
  EXPECT_FALSE(parse_duration("", &d));
  EXPECT_FALSE(parse_duration("-5s", &d));
  // Values that would overflow the int64 nanosecond clock are rejected,
  // not wrapped into garbage (llround on out-of-range doubles is UB).
  EXPECT_FALSE(parse_duration("9999999999h", &d));
  EXPECT_FALSE(parse_duration("1e30s", &d));
  EXPECT_FALSE(parse_duration("5 parsecs", &d));
  EXPECT_FALSE(parse_duration("fast", &d));

  // format_duration picks the largest exact unit and inverts exactly.
  for (const SimDuration v :
       {SimDuration{0}, 3 * kNanosecond, 1500 * kMillisecond, 2 * kHour,
        90 * kSecond, 7 * kMinute}) {
    SimDuration back = -1;
    ASSERT_TRUE(parse_duration(format_duration(v), &back))
        << format_duration(v);
    EXPECT_EQ(back, v) << format_duration(v);
  }
}

TEST(ScenarioSpecTest, ScaleGrammar) {
  double scale = 0;
  EXPECT_TRUE(parse_scale("0.1", &scale));
  EXPECT_EQ(scale, 0.1);
  EXPECT_TRUE(parse_scale("2", &scale));
  EXPECT_EQ(scale, 2.0);
  for (const char* bad : {"", "0", "-1", "nan", "inf", "-inf", "2x", "1e400"}) {
    EXPECT_FALSE(parse_scale(bad, &scale)) << bad;
  }

  EXPECT_EQ(scale_flow_count(1000, 0.25), 250u);
  EXPECT_EQ(scale_flow_count(3, 0.5), 1u);  // rounded down
  EXPECT_EQ(scale_flow_count(100'000, 1e30), std::nullopt);
  // A count std::vector<Flow>::reserve would reject is rejected here.
  EXPECT_EQ(scale_flow_count(std::size_t{1} << 62, 1.0), std::nullopt);
}

TEST(ScenarioSpecTest, SerializeParseRoundTrip) {
  const ParseResult first = parse_scenario(kFullSpec);
  ASSERT_TRUE(first.ok()) << first.error_text();

  const std::string canonical = serialize_scenario(first.spec);
  const ParseResult second = parse_scenario(canonical);
  ASSERT_TRUE(second.ok()) << second.error_text() << "\n" << canonical;

  EXPECT_TRUE(first.spec == second.spec) << canonical;
  // And the canonical form is a fixed point.
  EXPECT_EQ(canonical, serialize_scenario(second.spec));
}

TEST(ScenarioSpecTest, DefaultSpecRoundTrips) {
  const ScenarioSpec def;
  const ParseResult r = parse_scenario(serialize_scenario(def));
  ASSERT_TRUE(r.ok()) << r.error_text();
  EXPECT_TRUE(def == r.spec);
}

TEST(ScenarioSpecTest, KindIrrelevantWorkloadKeysRoundTrip) {
  // p/communities are accepted under any kind; the serializer must not
  // drop them or parse(serialize(s)) != s.
  const ParseResult r = parse_scenario(
      "[workload]\nkind = real_like\np = 5\ncommunities = 9\n");
  ASSERT_TRUE(r.ok()) << r.error_text();
  const ParseResult rt = parse_scenario(serialize_scenario(r.spec));
  ASSERT_TRUE(rt.ok()) << rt.error_text();
  EXPECT_TRUE(r.spec == rt.spec);
}

TEST(ScenarioSpecTest, ApplyOverride) {
  ScenarioSpec spec;
  std::string err;
  EXPECT_TRUE(apply_override(spec, "config.runtime.num_shards=4", &err))
      << err;
  EXPECT_EQ(spec.config.runtime.num_shards, 4u);
  EXPECT_TRUE(apply_override(spec, "workload.flows=123", &err)) << err;
  EXPECT_EQ(spec.workload.flows, 123u);
  EXPECT_TRUE(apply_override(spec, "scenario.seed=9", &err)) << err;
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_TRUE(apply_override(spec, "topology.switches=16", &err)) << err;
  EXPECT_EQ(spec.topology.switches, 16u);

  EXPECT_FALSE(apply_override(spec, "config.no_such=1", &err));
  EXPECT_NE(err.find("no_such"), std::string::npos);
  EXPECT_FALSE(apply_override(spec, "flows=5", &err));  // missing section
  EXPECT_FALSE(apply_override(spec, "sector.x=5", &err));
}

TEST(ScenarioSpecTest, LayoutAndModeSpellingsParseBack) {
  // to_string() of a mode / fib.layout is the value its .scn key takes.
  ScenarioSpec spec;
  std::string err;
  for (const auto layout :
       {core::GFibLayout::kLinear, core::GFibLayout::kSliced}) {
    ASSERT_TRUE(apply_override(
        spec, std::string("config.fib.layout=") + to_string(layout), &err))
        << err;
    EXPECT_EQ(spec.config.fib.layout, layout);
  }
  for (const auto mode :
       {core::ControlMode::kOpenFlow, core::ControlMode::kLazyCtrl}) {
    ASSERT_TRUE(apply_override(
        spec, std::string("config.mode=") + to_string(mode), &err))
        << err;
    EXPECT_EQ(spec.config.mode, mode);
  }
}

TEST(ScenarioSpecTest, RejectsIntegersOutsideTheFieldRange) {
  // An integer key must fit its field: a value one past the field's
  // largest is an error (line-numbered in a file, a failed --set), not a
  // wrapped value, and the largest value itself is accepted and printed.
  struct Case {
    const char* key;
    const char* too_big;
    const char* largest;
  };
  for (const Case& c : {Case{"max_incupdate_iterations", "2147483648",
                             "2147483647"},
                        Case{"keepalive_loss_threshold", "2147483648",
                             "2147483647"},
                        Case{"ctrl.punt_retry_limit", "4294967296",
                             "4294967295"}}) {
    SCOPED_TRACE(c.key);
    const std::string key = c.key;
    const ParseResult bad =
        parse_scenario("[config]\n" + key + " = " + c.too_big + "\n");
    ASSERT_EQ(bad.errors.size(), 1u) << bad.error_text();
    EXPECT_EQ(bad.errors[0].line, 2);
    EXPECT_NE(bad.errors[0].message.find(key), std::string::npos)
        << bad.errors[0].message;

    ScenarioSpec spec;
    std::string err;
    EXPECT_FALSE(
        apply_override(spec, "config." + key + "=" + c.too_big, &err));
    EXPECT_NE(err.find(key), std::string::npos) << err;
    EXPECT_TRUE(spec == ScenarioSpec{});

    const ParseResult max =
        parse_scenario("[config]\n" + key + " = " + c.largest + "\n");
    ASSERT_TRUE(max.ok()) << max.error_text();
    const std::string canonical = serialize_scenario(max.spec);
    EXPECT_NE(canonical.find(key + " = " + c.largest + "\n"),
              std::string::npos)
        << canonical;
    const ParseResult back = parse_scenario(canonical);
    ASSERT_TRUE(back.ok()) << back.error_text();
    EXPECT_TRUE(back.spec == max.spec);
    EXPECT_TRUE(apply_override(spec, "config." + key + "=" + c.largest, &err))
        << err;
    EXPECT_TRUE(spec == max.spec);
  }
}

TEST(ScenarioSpecTest, CanonicalTextIsStable) {
  // Every snapshot embeds this text in its SPEC section, so a reordered,
  // respelled or reformatted line changes snapshot bytes: pin it.
  EXPECT_EQ(serialize_scenario(parse_scenario(kFullSpec).spec),
            R"([scenario]
name = everything
description = exercises every section
seed = 42

[topology]
switches = 24
tenants = 12
min_vms_per_tenant = 4
max_vms_per_tenant = 10
vms_per_switch = 8

[workload]
kind = synthetic
flows = 3000
horizon = 30m
profile = flat
p = 70
q = 20
communities = 6
intra_share = 0.85
phases = 4
drift_fraction = 0.25

[config]
mode = lazyctrl
bootstrap = history
group_size_limit = 6
workload_growth_trigger = 0.3
stats_window = 30s
intensity_ewma_decay = 0.85
max_incupdate_iterations = 4
parallel_incupdate = false
preload_on_update = true
transition_window = 200ms
host_exclusion_tenant_threshold = 0
dgm.mode = periodic
dgm.maintenance_period = 5m
dgm.inter_fraction_limit = 0.15
dgm.degradation_factor = 1.5
dgm.degradation_floor = 0.02
dgm.size_skew_limit = 0.75
dgm.min_flow_evidence = 200
dgm.cooldown = 2m
dgm.max_moves_per_round = 8
dgm.max_merges_per_round = 2
dgm.max_splits_per_round = 2
dgm.min_gain_fraction = 0.02
fib.layout = linear
fib.bloom_bits = 16384
fib.bloom_hashes = 8
fib.report_false_positives = false
rules.rule_ttl = 90s
rules.flow_table_capacity = 0
runtime.num_shards = 2
controller.servers = 2
ctrl.loss_rate = 0.05
ctrl.dup_rate = 0.01
ctrl.queue_cap = 8
ctrl.punt_retry_limit = 4
ctrl.punt_retry_base = 3ms
ctrl.reconcile_period = 5m
latency.host_link = 20us
latency.datapath = 150us
latency.switch_processing = 10us
latency.control_link = 250us
latency.controller_service = 50us
state_report_period = 30s
failover = true
keepalive_period = 1s
keepalive_loss_threshold = 3
switch_reboot_delay = 10s

[events]
at=5m fail_switch sw=3
at=6m recover_switch sw=3
at=10m controller_outage duration=20s
at=12m migration_burst hosts=5 spread=30s
at=15m traffic_surge duration=5m factor=2.5
at=20m force_regroup
at=21m set_control_loss rate=0.1
at=22m set_control_dup rate=0.02
at=23m set_ctrl_queue_cap cap=16
at=24m reconcile
)");
  EXPECT_EQ(serialize_scenario(ScenarioSpec{}), R"([scenario]
name = unnamed
seed = 1

[topology]
switches = 48
tenants = 30
min_vms_per_tenant = 10
max_vms_per_tenant = 30
vms_per_switch = 12

[workload]
kind = real_like
flows = 20000
horizon = 2h
profile = business_day
p = 90
q = 10
communities = 6
intra_share = 0.85
phases = 4
drift_fraction = 0.25

[config]
mode = lazyctrl
bootstrap = history
group_size_limit = 46
workload_growth_trigger = 0.3
stats_window = 1m
intensity_ewma_decay = 0.85
max_incupdate_iterations = 4
parallel_incupdate = false
preload_on_update = true
transition_window = 200ms
host_exclusion_tenant_threshold = 0
dgm.mode = controller_load
dgm.maintenance_period = 5m
dgm.inter_fraction_limit = 0.15
dgm.degradation_factor = 1.5
dgm.degradation_floor = 0.02
dgm.size_skew_limit = 0.75
dgm.min_flow_evidence = 200
dgm.cooldown = 2m
dgm.max_moves_per_round = 8
dgm.max_merges_per_round = 2
dgm.max_splits_per_round = 2
dgm.min_gain_fraction = 0.02
fib.layout = sliced
fib.bloom_bits = 16384
fib.bloom_hashes = 8
fib.report_false_positives = false
rules.rule_ttl = 1m
rules.flow_table_capacity = 0
runtime.num_shards = 1
controller.servers = 1
ctrl.loss_rate = 0
ctrl.dup_rate = 0
ctrl.queue_cap = 0
ctrl.punt_retry_limit = 3
ctrl.punt_retry_base = 2ms
ctrl.reconcile_period = 0s
latency.host_link = 20us
latency.datapath = 150us
latency.switch_processing = 10us
latency.control_link = 500us
latency.controller_service = 50us
state_report_period = 30s
failover = false
keepalive_period = 1s
keepalive_loss_threshold = 3
switch_reboot_delay = 10s

[events]
)");
}

// ---------------------------------------------------------------- runner

/// A compact but eventful scenario exercising every sim-time seam:
/// failover wheel, controller outage, tenant churn, migration burst,
/// surge and forced regroup, on a topology small enough for CI.
const char* kRunnerSpec = R"(
[scenario]
name = runner_test
seed = 5

[topology]
switches = 24
tenants = 12
min_vms_per_tenant = 4
max_vms_per_tenant = 10
vms_per_switch = 6

[workload]
kind = real_like
flows = 4000
horizon = 40m
profile = flat

[config]
mode = lazyctrl
group_size_limit = 6
stats_window = 1m
dgm.min_flow_evidence = 50
failover = true

[events]
at=5m fail_control_link sw=2
at=8m fail_switch sw=7
at=10m recover_control_link sw=2
at=12m controller_outage duration=2m
at=14m tenant_departure tenant=4
at=16m tenant_arrival tenant=9
at=18m migration_burst hosts=8 spread=1m
at=20m traffic_surge factor=2 duration=10m
at=25m force_regroup
)";

std::unique_ptr<ScenarioRunner> run_spec(const ScenarioSpec& spec) {
  auto runner = std::make_unique<ScenarioRunner>(spec);
  std::string error;
  EXPECT_TRUE(runner->run(&error)) << error;
  return runner;
}

ScenarioSpec runner_spec() {
  ParseResult r = parse_scenario(kRunnerSpec);
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.spec;
}

TEST(ScenarioRunnerTest, RunsAndAppliesEvents) {
  const auto runner = run_spec(runner_spec());
  const core::RunMetrics& m = runner->metrics();
  // Every shaped-trace flow (surge clones added, dormant/departed tenant
  // flows removed) went through the datapath.
  EXPECT_EQ(m.flows_seen, runner->trace().flow_count());
  EXPECT_GT(m.flows_seen, 3000u);
  EXPECT_GT(m.flows_intra_group + m.flows_local_delivery, 0u);
  // Outage showed up as controller queueing delay (>= ~seconds).
  EXPECT_GT(m.controller_queue_delay_ms.max(), 1000.0);
  const auto& counts = runner->event_counts();
  EXPECT_EQ(counts.scheduled, 7u);  // all but surge + burst
  EXPECT_GE(counts.applied, 6u);
  EXPECT_EQ(counts.applied + counts.skipped,
            counts.scheduled + 2u);  // + surge + burst
}

TEST(ScenarioRunnerTest, SurgeAddsFlowsOverUnsurgedBaseline) {
  ScenarioSpec surged = runner_spec();
  ScenarioSpec plain = surged;
  std::erase_if(plain.events, [](const ScenarioEvent& e) {
    return e.kind == EventKind::kTrafficSurge;
  });
  const auto a = run_spec(surged);
  const auto b = run_spec(plain);
  EXPECT_GT(a->trace().flow_count(), b->trace().flow_count());
}

TEST(ScenarioRunnerTest, WheelDetectionsSurviveWithoutRegrouping) {
  // Wheel state (and its event log) resets when a grouping update
  // rebuilds the failure wheels, so the detection assertion needs a
  // regroup-free variant of the scenario.
  ScenarioSpec spec = runner_spec();
  std::string err;
  ASSERT_TRUE(apply_override(spec, "config.dgm.mode=off", &err))
      << err;
  std::erase_if(spec.events, [](const ScenarioEvent& e) {
    return e.kind == EventKind::kForceRegroup;
  });
  const auto runner = run_spec(spec);
  // Control-link failure + switch failure were both detected (Table I).
  EXPECT_GE(runner->network().failover_event_count(), 2u);
}

TEST(ScenarioRunnerTest, RerunIsBitIdentical) {
  const ScenarioSpec spec = runner_spec();
  const auto a = run_spec(spec);
  const auto b = run_spec(spec);
  EXPECT_TRUE(a->metrics().identical_to(b->metrics()));
  EXPECT_EQ(a->trace().flow_count(), b->trace().flow_count());
}

TEST(ScenarioRunnerTest, ShardedDeterministicReplayIsBitIdentical) {
  const ScenarioSpec spec = runner_spec();
  const auto single = run_spec(spec);

  ScenarioSpec sharded = spec;
  std::string err;
  ASSERT_TRUE(apply_override(sharded, "config.runtime.num_shards=2", &err))
      << err;
  const auto dual = run_spec(sharded);

  EXPECT_TRUE(single->metrics().identical_to(dual->metrics()));
}

TEST(ScenarioRunnerTest, LossyControlPlaneIsBitIdenticalAcrossRepsAndShards) {
  // Fault decisions are keyed on splitmix64(flow id), never the run RNG,
  // so a lossy run must replay bit-identically rep to rep AND across
  // shard counts.
  ScenarioSpec spec = runner_spec();
  std::string err;
  ASSERT_TRUE(apply_override(spec, "config.ctrl.loss_rate=0.1", &err)) << err;
  ASSERT_TRUE(apply_override(spec, "config.ctrl.dup_rate=0.02", &err)) << err;
  ASSERT_TRUE(apply_override(spec, "config.ctrl.queue_cap=4", &err)) << err;
  const auto a = run_spec(spec);
  const auto b = run_spec(spec);
  EXPECT_TRUE(a->metrics().identical_to(b->metrics()))
      << a->metrics().diff_report(b->metrics());

  ScenarioSpec sharded = spec;
  ASSERT_TRUE(apply_override(sharded, "config.runtime.num_shards=2", &err))
      << err;
  const auto dual = run_spec(sharded);
  EXPECT_TRUE(a->metrics().identical_to(dual->metrics()))
      << a->metrics().diff_report(dual->metrics());

  // The faults actually fired.
  EXPECT_GT(a->metrics().ctrl_msgs_lost, 0u);
  EXPECT_GT(a->metrics().punt_retries, 0u);
}

TEST(ScenarioRunnerTest, ExhaustedPuntsDegradeToFloodingInLazyCtrl) {
  // At 95% loss almost every punt exhausts its retry budget; LazyCtrl
  // must fall back to §III-D intra-group flooding, never drop.
  ScenarioSpec spec = runner_spec();
  std::string err;
  ASSERT_TRUE(apply_override(spec, "config.ctrl.loss_rate=0.95", &err)) << err;
  ASSERT_TRUE(apply_override(spec, "config.ctrl.punt_retry_limit=1", &err))
      << err;
  const auto runner = run_spec(spec);
  const core::RunMetrics& m = runner->metrics();
  EXPECT_GT(m.flows_degraded, 0u);
  EXPECT_GT(m.punt_timeouts, 0u);
  EXPECT_EQ(m.flows_dropped, 0u);
  // Conservation: every flow is still accounted for.
  EXPECT_EQ(m.flows_seen, m.flows_flow_table_hit + m.flows_local_delivery +
                              m.flows_intra_group + m.flows_inter_group +
                              m.transition_punts + m.flows_degraded);
}

TEST(ScenarioRunnerTest, ExhaustedPuntsDropInOpenFlow) {
  // The OpenFlow baseline has no flooding fallback: an exhausted punt is
  // a dropped flow.
  ScenarioSpec spec = runner_spec();
  spec.config.failover_enabled = false;
  spec.events.clear();
  std::string err;
  ASSERT_TRUE(apply_override(spec, "config.mode=openflow", &err)) << err;
  ASSERT_TRUE(apply_override(spec, "config.ctrl.loss_rate=0.95", &err)) << err;
  ASSERT_TRUE(apply_override(spec, "config.ctrl.punt_retry_limit=0", &err))
      << err;
  const auto runner = run_spec(spec);
  const core::RunMetrics& m = runner->metrics();
  EXPECT_GT(m.flows_dropped, 0u);
  EXPECT_EQ(m.flows_degraded, 0u);
  EXPECT_EQ(m.flows_seen, m.flows_flow_table_hit + m.controller_packet_ins +
                              m.flows_dropped);
}

TEST(ScenarioRunnerTest, ReconcileEventAppliesInLazyCtrlOnly) {
  ScenarioSpec spec = runner_spec();
  spec.events.clear();
  spec.events.push_back({.at = 10 * kMinute, .kind = EventKind::kReconcile});
  const auto lazy = run_spec(spec);
  EXPECT_EQ(lazy->event_counts().applied, 1u);

  ScenarioSpec open = spec;
  open.config.failover_enabled = false;
  std::string err;
  ASSERT_TRUE(apply_override(open, "config.mode=openflow", &err)) << err;
  const auto base = run_spec(open);
  // No G-FIB/L-FIB to audit in the baseline: the event is a skip.
  EXPECT_EQ(base->event_counts().applied, 0u);
  EXPECT_EQ(base->event_counts().skipped, 1u);
}

TEST(ScenarioRunnerTest, DormantTenantSendsNoFlowsBeforeArrival) {
  ScenarioSpec spec = runner_spec();
  const auto runner = run_spec(spec);
  // The shaped trace must not contain tenant-9 flows before 16m or
  // tenant-4 flows after 14m.
  const auto& topo = runner->network().topology();
  for (const workload::Flow& f : runner->trace().flows) {
    const TenantId src_t = topo.host_info(f.src).tenant;
    const TenantId dst_t = topo.host_info(f.dst).tenant;
    if (src_t == TenantId{9} || dst_t == TenantId{9}) {
      EXPECT_GE(f.start, 16 * kMinute);
    }
    if (src_t == TenantId{4} || dst_t == TenantId{4}) {
      EXPECT_LT(f.start, 14 * kMinute);
    }
  }
}

TEST(ScenarioRunnerTest, MigrationBurstNeverMovesDormantTenantHosts) {
  // Every tenant is dormant until after the burst window, so the burst
  // finds no eligible VM and must be skipped — migrating a dormant host
  // would re-announce state the dormancy seams explicitly withheld.
  ScenarioSpec spec = runner_spec();
  spec.topology.tenants = 2;
  spec.config.failover_enabled = false;
  spec.events.clear();
  spec.events.push_back(
      {.at = 20 * kMinute, .kind = EventKind::kTenantArrival, .tenant = 0});
  spec.events.push_back(
      {.at = 25 * kMinute, .kind = EventKind::kTenantArrival, .tenant = 1});
  spec.events.push_back({.at = 5 * kMinute,
                         .kind = EventKind::kMigrationBurst,
                         .hosts = 4});
  const auto runner = run_spec(spec);
  const auto& counts = runner->event_counts();
  EXPECT_EQ(counts.applied, 2u);  // the two arrivals
  EXPECT_EQ(counts.skipped, 1u);  // the burst found no eligible host
}

TEST(ScenarioRunnerTest, RecoveryWithoutFailureIsSkipped) {
  ScenarioSpec spec = runner_spec();
  spec.events.clear();
  spec.events.push_back({.at = 5 * kMinute,
                         .kind = EventKind::kRecoverControlLink,
                         .sw = 2});
  spec.events.push_back(
      {.at = 6 * kMinute, .kind = EventKind::kRecoverPeerLink, .sw = 3});
  const auto runner = run_spec(spec);
  EXPECT_EQ(runner->event_counts().applied, 0u);
  EXPECT_EQ(runner->event_counts().skipped, 2u);
}

TEST(ScenarioRunnerTest, RejectsOutOfRangeTargets) {
  ScenarioSpec spec = runner_spec();
  spec.events.push_back(
      {.at = kMinute, .kind = EventKind::kFailSwitch, .sw = 99});
  ScenarioRunner runner(spec);
  std::string error;
  EXPECT_FALSE(runner.run(&error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(ScenarioRunnerTest, RejectsFailoverEventsWithoutFailover) {
  ScenarioSpec spec = runner_spec();
  spec.config.failover_enabled = false;
  ScenarioRunner runner(spec);
  std::string error;
  EXPECT_FALSE(runner.run(&error));
  EXPECT_NE(error.find("failover"), std::string::npos) << error;
}

TEST(ScenarioRunnerTest, RejectsInvertedVmRangeFromOverride) {
  // apply_override can break the min <= max invariant after a clean
  // parse; the runner must refuse BEFORE the topology builder turns the
  // inverted range into a 2^64-sized uniform draw.
  ScenarioSpec spec = runner_spec();
  std::string err;
  ASSERT_TRUE(
      apply_override(spec, "topology.min_vms_per_tenant=50", &err))
      << err;
  ScenarioRunner runner(spec);
  std::string error;
  EXPECT_FALSE(runner.run(&error));
  EXPECT_NE(error.find("min_vms_per_tenant"), std::string::npos) << error;
}

TEST(ScenarioRunnerTest, RejectsEventsBeyondHorizon) {
  ScenarioSpec spec = runner_spec();
  spec.events.push_back({.at = 3 * kHour, .kind = EventKind::kForceRegroup});
  ScenarioRunner runner(spec);
  std::string error;
  EXPECT_FALSE(runner.run(&error));
  EXPECT_NE(error.find("horizon"), std::string::npos) << error;
}

// ------------------------------------------------------ boundary cases

TEST(ScenarioRunnerTest, EventAtTimeZeroApplies) {
  ScenarioSpec spec = runner_spec();
  spec.events.clear();
  spec.events.push_back({.at = 0, .kind = EventKind::kForceRegroup});
  const auto runner = run_spec(spec);
  EXPECT_EQ(runner->event_counts().scheduled, 1u);
  EXPECT_EQ(runner->event_counts().applied + runner->event_counts().skipped,
            1u);
}

TEST(ScenarioRunnerTest, EventExactlyAtHorizonFires) {
  // run_until(deadline) processes events with time <= deadline, so an
  // event at exactly the horizon is both valid and applied.
  ScenarioSpec spec = runner_spec();
  spec.events.clear();
  spec.events.push_back({.at = spec.workload.horizon,
                         .kind = EventKind::kTenantDeparture,
                         .tenant = 3});
  const auto runner = run_spec(spec);
  EXPECT_EQ(runner->event_counts().scheduled, 1u);
  EXPECT_EQ(runner->event_counts().applied, 1u);
}

TEST(ScenarioSpecTest, RecoveryBeforeItsFailureIsLineNumberedError) {
  const std::string text =
      "[config]\n"                        // 1
      "failover = true\n"                 // 2
      "[events]\n"                        // 3
      "at=2m recover_switch sw=4\n"       // 4: fires before the failure
      "at=5m fail_switch sw=4\n";         // 5
  const ParseResult r = parse_scenario(text);
  ASSERT_EQ(r.errors.size(), 1u) << r.error_text();
  EXPECT_EQ(r.errors[0].line, 4);
  EXPECT_NE(r.errors[0].message.find("fires before its fail_switch"),
            std::string::npos)
      << r.errors[0].message;
}

TEST(ScenarioRunnerTest, RejectsRecoveryScheduledBeforeItsFailure) {
  ScenarioSpec spec = runner_spec();
  spec.events.clear();
  spec.events.push_back(
      {.at = 2 * kMinute, .kind = EventKind::kRecoverSwitch, .sw = 4});
  spec.events.push_back(
      {.at = 5 * kMinute, .kind = EventKind::kFailSwitch, .sw = 4});
  ScenarioRunner runner(spec);
  std::string error;
  EXPECT_FALSE(runner.run(&error));
  EXPECT_NE(error.find("fires before its fail_switch"), std::string::npos)
      << error;
}

TEST(ScenarioRunnerTest, RejectsDuplicateTenantDeparture) {
  ScenarioSpec spec = runner_spec();
  spec.events.clear();
  spec.events.push_back(
      {.at = 5 * kMinute, .kind = EventKind::kTenantDeparture, .tenant = 2});
  spec.events.push_back(
      {.at = 9 * kMinute, .kind = EventKind::kTenantDeparture, .tenant = 2});
  ScenarioRunner runner(spec);
  std::string error;
  EXPECT_FALSE(runner.run(&error));
  EXPECT_NE(error.find("already has a tenant_departure"), std::string::npos)
      << error;
}

}  // namespace
}  // namespace lazyctrl::scenario
