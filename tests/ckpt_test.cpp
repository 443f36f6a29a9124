// Tests for the checkpoint/restore codec (src/ckpt): the bit-identity
// contract — restore(checkpoint(s)) reproduces the snapshot byte for
// byte and a resumed replay finishes with RunMetrics identical to the
// uninterrupted run's, across both G-FIB layouts and shard counts — the
// fence-purity guarantee over every committed example scenario, and the
// robustness contract: corrupt, truncated or version-skewed snapshots
// fail with an offset-diagnosed error, never a crash or a silent
// partial restore. The codec's own values (CRC-32 known answers, the
// Writer's byte layout) are pinned to literals.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/io.h"
#include "common/mac.h"
#include "core/metrics.h"
#include "scenario/runner.h"
#include "scenario/spec.h"

namespace lazyctrl::ckpt {
namespace {

using scenario::ParseResult;
using scenario::ScenarioRunner;

// A scenario that leaves a rich pending queue at the checkpoint fence:
// failover wheels ticking, a DGM timer armed, a controller outage just
// past, future script events still scheduled and the flow cursor mid
// trace. The checkpoint at 8m sits between a failure and its recovery.
std::string spec_text(const std::string& layout, unsigned shards) {
  std::ostringstream out;
  out << R"([scenario]
name = ckpt_exercise
description = checkpoint mid-incident
seed = 7

[topology]
switches = 12
tenants = 6
min_vms_per_tenant = 2
max_vms_per_tenant = 5
vms_per_switch = 6

[workload]
kind = synthetic
flows = 1500
horizon = 20m
profile = flat

[config]
mode = lazyctrl
group_size_limit = 4
stats_window = 30s
dgm.mode = periodic
dgm.maintenance_period = 4m
failover = true
controller.servers = 1
)";
  out << "fib.layout = " << layout << "\n";
  out << "runtime.num_shards = " << shards << "\n";
  out << R"(
[events]
at=4m traffic_surge factor=2 duration=4m
at=5m migration_burst hosts=3 spread=20s
at=6m controller_outage duration=30s
at=7m fail_switch sw=2
at=8m checkpoint_at
at=9m recover_switch sw=2
at=12m force_regroup
)";
  return out.str();
}

scenario::ScenarioSpec parse_or_die(const std::string& text) {
  const ParseResult r = scenario::parse_scenario(text);
  EXPECT_TRUE(r.ok()) << r.error_text();
  return r.spec;
}

/// Runs the exercise scenario to completion and returns the runner (for
/// its final metrics and the mid-run snapshot).
std::unique_ptr<ScenarioRunner> run_exercise(const std::string& layout,
                                             unsigned shards) {
  auto runner =
      std::make_unique<ScenarioRunner>(parse_or_die(spec_text(layout, shards)));
  std::string err;
  EXPECT_TRUE(runner->run(&err)) << err;
  EXPECT_EQ(runner->snapshots().size(), 1u);
  EXPECT_TRUE(runner->snapshots()[0].error.empty())
      << runner->snapshots()[0].error;
  EXPECT_FALSE(runner->snapshots()[0].bytes.empty());
  return runner;
}

// ------------------------------------------------- round-trip identity

class CkptMatrixTest
    : public ::testing::TestWithParam<std::pair<const char*, unsigned>> {};

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndShards, CkptMatrixTest,
    ::testing::Values(std::pair<const char*, unsigned>{"linear", 1},
                      std::pair<const char*, unsigned>{"linear", 2},
                      std::pair<const char*, unsigned>{"sliced", 1},
                      std::pair<const char*, unsigned>{"sliced", 2}),
    [](const auto& info) {
      return std::string(info.param.first) + "_shards" +
             std::to_string(info.param.second);
    });

TEST_P(CkptMatrixTest, RestoreThenSaveReproducesSnapshotBytes) {
  const auto [layout, shards] = GetParam();
  const auto runner = run_exercise(layout, shards);
  const std::vector<std::uint8_t>& bytes = runner->snapshots()[0].bytes;

  std::string err;
  const auto restored = ScenarioRunner::restore(bytes, &err);
  ASSERT_NE(restored, nullptr) << err;

  std::vector<std::uint8_t> again;
  ASSERT_TRUE(restored->save_now(&again, &err)) << err;
  EXPECT_EQ(bytes, again) << "restore(checkpoint(s)) is not byte-identical";
}

TEST_P(CkptMatrixTest, ResumedRunIsBitIdenticalToUninterrupted) {
  const auto [layout, shards] = GetParam();
  const auto full = run_exercise(layout, shards);

  std::string err;
  auto resumed = ScenarioRunner::restore(full->snapshots()[0].bytes, &err);
  ASSERT_NE(resumed, nullptr) << err;
  ASSERT_TRUE(resumed->finish(&err)) << err;

  EXPECT_TRUE(resumed->metrics().identical_to(full->metrics()))
      << resumed->metrics().diff_report(full->metrics());
  EXPECT_EQ(resumed->event_counts().applied, full->event_counts().applied);
  EXPECT_EQ(resumed->event_counts().skipped, full->event_counts().skipped);
}

TEST(CkptTest, SnapshotAtRecordsTheFenceTime) {
  const auto runner = run_exercise("linear", 1);
  EXPECT_EQ(runner->snapshots()[0].at, 8 * kMinute);
}

TEST(CkptTest, ExtraCheckpointsResumeBitIdentically) {
  // --checkpoint-every style fences (no checkpoint_at in the spec text)
  // must also resume bit-identically, including one landing on a script
  // event's own fence time (the script event commits first).
  auto spec = parse_or_die(spec_text("linear", 1));
  spec.events.erase(spec.events.begin() + 4);  // drop the checkpoint_at
  auto full = std::make_unique<ScenarioRunner>(spec);
  full->add_checkpoint_times({6 * kMinute, 10 * kMinute});
  std::string err;
  ASSERT_TRUE(full->run(&err)) << err;
  ASSERT_EQ(full->snapshots().size(), 2u);
  for (const auto& snap : full->snapshots()) {
    ASSERT_TRUE(snap.error.empty()) << snap.error;
    auto resumed = ScenarioRunner::restore(snap.bytes, &err);
    ASSERT_NE(resumed, nullptr) << err;
    ASSERT_TRUE(resumed->finish(&err)) << err;
    EXPECT_TRUE(resumed->metrics().identical_to(full->metrics()))
        << "resumed from t=" << snap.at << ":\n"
        << resumed->metrics().diff_report(full->metrics());
  }
}

TEST_P(CkptMatrixTest, ExtraCheckpointFencesAreMetricsNeutral) {
  // lazyctrl_run --checkpoint-every relies on this: a run with extra
  // snapshot fences must finish with RunMetrics bit-identical to the
  // plain run (the fences shift simulator event ids and replay spans,
  // neither of which may affect any recorded metric).
  const auto [layout, shards] = GetParam();
  const auto spec = parse_or_die(spec_text(layout, shards));
  ScenarioRunner plain(spec);
  std::string err;
  ASSERT_TRUE(plain.run(&err)) << err;

  ScenarioRunner fenced(spec);
  fenced.add_checkpoint_times(
      {3 * kMinute, 10 * kMinute + 30 * kSecond, 15 * kMinute});
  ASSERT_TRUE(fenced.run(&err)) << err;
  EXPECT_TRUE(fenced.metrics().identical_to(plain.metrics()))
      << fenced.metrics().diff_report(plain.metrics());
}

TEST(CkptTest, RestoredRunnerContinuesSnapshotNumbering) {
  // A resumed run must take the snapshots the uninterrupted run would
  // still take, with the same numbering (index continuity).
  auto spec = parse_or_die(spec_text("linear", 1));
  auto full = std::make_unique<ScenarioRunner>(spec);
  full->add_checkpoint_times({10 * kMinute});
  std::string err;
  ASSERT_TRUE(full->run(&err)) << err;
  ASSERT_EQ(full->snapshots().size(), 2u);  // checkpoint_at 8m + extra 10m

  auto resumed = ScenarioRunner::restore(full->snapshots()[0].bytes, &err);
  ASSERT_NE(resumed, nullptr) << err;
  ASSERT_TRUE(resumed->finish(&err)) << err;
  ASSERT_EQ(resumed->snapshots().size(), 1u);  // the 10m fence re-fires
  EXPECT_EQ(resumed->snapshots()[0].at, 10 * kMinute);
  EXPECT_TRUE(resumed->snapshots()[0].error.empty())
      << resumed->snapshots()[0].error;
  EXPECT_EQ(resumed->snapshots()[0].bytes, full->snapshots()[1].bytes)
      << "the resumed run's next snapshot differs from the uninterrupted one";
}

// ---------------------------------------------------- fence purity

TEST(CkptFencePurityTest, EveryExampleScenarioFenceIsClean) {
  // At every scenario-event fence of every committed example, a snapshot
  // must succeed — the codec classifying the whole pending queue IS the
  // in-flight ≡ 0 check — and the conservation invariants must hold.
  namespace fs = std::filesystem;
  fs::path dir;
  for (const char* candidate :
       {"../examples/scenarios", "examples/scenarios"}) {
    if (fs::is_directory(candidate)) {
      dir = candidate;
      break;
    }
  }
  if (dir.empty()) GTEST_SKIP() << "examples/scenarios not found";

  std::size_t scenarios = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const ParseResult parsed = scenario::parse_scenario(text.str());
    ASSERT_TRUE(parsed.ok()) << entry.path() << ":\n" << parsed.error_text();

    ScenarioRunner runner(parsed.spec);
    std::vector<SimTime> fences;
    for (const auto& ev : parsed.spec.events) fences.push_back(ev.at);
    if (fences.empty()) fences.push_back(parsed.spec.workload.horizon / 2);
    runner.add_checkpoint_times(fences);
    runner.enable_invariant_checks();
    std::string err;
    ASSERT_TRUE(runner.run(&err)) << entry.path() << ": " << err;
    EXPECT_EQ(runner.snapshots().size(), fences.size()) << entry.path();
    for (const auto& snap : runner.snapshots()) {
      EXPECT_TRUE(snap.error.empty())
          << entry.path() << " fence t=" << snap.at << ": " << snap.error;
    }
    EXPECT_TRUE(runner.invariant_violations().empty())
        << entry.path() << ":\n"
        << (runner.invariant_violations().empty()
                ? ""
                : runner.invariant_violations()[0]);
    ++scenarios;
  }
  EXPECT_EQ(scenarios, 6u) << "expected the six committed example scenarios";
}

const std::vector<std::uint8_t>& valid_snapshot() {
  static const std::vector<std::uint8_t> bytes = [] {
    auto runner = run_exercise("linear", 1);
    return runner->snapshots()[0].bytes;
  }();
  return bytes;
}

// A second fixture whose run regroups after its checkpoint: drift-
// triggered DGM follows drifting switch communities, so finish() reads
// the restored traffic estimate back into intensity graphs and inter-
// group splits. The fence at 20.5 min sits mid stats window, so the
// current window travels too.
std::string regroup_spec_text() {
  return R"([scenario]
name = ckpt_regroup
description = drift-triggered regrouping after the checkpoint fence
seed = 5

[topology]
switches = 24
tenants = 12
min_vms_per_tenant = 4
max_vms_per_tenant = 10
vms_per_switch = 6

[workload]
kind = drifting_locality
flows = 3000
horizon = 40m
communities = 4
intra_share = 0.85
phases = 3
drift_fraction = 0.3

[config]
mode = lazyctrl
group_size_limit = 8
stats_window = 1m
dgm.mode = drift_triggered
dgm.maintenance_period = 2m
dgm.cooldown = 2m
dgm.min_flow_evidence = 20

[events]
at=1230s checkpoint_at
)";
}

const ScenarioRunner& regroup_run() {
  static const std::unique_ptr<ScenarioRunner> runner = [] {
    auto r =
        std::make_unique<ScenarioRunner>(parse_or_die(regroup_spec_text()));
    std::string err;
    EXPECT_TRUE(r->run(&err)) << err;
    EXPECT_EQ(r->snapshots().size(), 1u);
    return r;
  }();
  return *runner;
}

TEST(CkptTest, RegroupFixtureRegroupsAfterItsFence) {
  const ScenarioRunner& full = regroup_run();
  ASSERT_EQ(full.snapshots().size(), 1u);
  std::string err;
  auto resumed = ScenarioRunner::restore(full.snapshots()[0].bytes, &err);
  ASSERT_NE(resumed, nullptr) << err;
  const std::uint64_t plans_at_fence = resumed->metrics().dgm_plans_applied;
  ASSERT_TRUE(resumed->finish(&err)) << err;
  EXPECT_GT(full.metrics().dgm_plans_applied, plans_at_fence)
      << "no regrouping after the fence";
  EXPECT_TRUE(resumed->metrics().identical_to(full.metrics()))
      << resumed->metrics().diff_report(full.metrics());
}

// A third fixture whose fence holds every key-sorted list a snapshot
// carries: tenant 2 arrives after the fence, so its hosts are dormant
// there; switches serving more than one tenant exclude the hosts of all
// but their largest; and every switch's control link is down, so each
// failure wheel has reported failures and missed keep-alives for several
// members.
std::string keys_spec_text() {
  std::string text = R"([scenario]
name = ckpt_keys
description = dormant hosts and failure-wheel keys at the fence
seed = 7

[topology]
switches = 12
tenants = 6
min_vms_per_tenant = 2
max_vms_per_tenant = 5
vms_per_switch = 6

[workload]
kind = synthetic
flows = 1500
horizon = 20m
profile = flat

[config]
mode = lazyctrl
group_size_limit = 4
failover = true
host_exclusion_tenant_threshold = 1

[events]
)";
  for (int sw = 0; sw < 12; ++sw) {
    text += "at=4m fail_control_link sw=" + std::to_string(sw) + "\n";
  }
  return text + "at=8m checkpoint_at\nat=12m tenant_arrival tenant=2\n";
}

const std::vector<std::uint8_t>& keys_snapshot() {
  static const std::vector<std::uint8_t> bytes = [] {
    ScenarioRunner runner(parse_or_die(keys_spec_text()));
    std::string err;
    EXPECT_TRUE(runner.run(&err)) << err;
    EXPECT_EQ(runner.snapshots().size(), 1u);
    return runner.snapshots().at(0).bytes;
  }();
  return bytes;
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(CkptTest, SnapshotBytesArePinned) {
  // The round-trip tests compare a snapshot with itself, so a section
  // walk that changes the bytes it writes passes them. These hashes pin
  // two fixtures' snapshots as the format-6 codec wrote them; a change
  // that moves them must bump ckpt::kFormatVersion.
  struct Pinned {
    const char* name;
    const std::vector<std::uint8_t>* bytes;
    std::size_t size;
    std::uint64_t hash;
  };
  for (const Pinned& p :
       {Pinned{"exercise", &valid_snapshot(), 5840, 0x2fc0ef40dc78cd9bULL},
        Pinned{"keys", &keys_snapshot(), 6458, 0xaae1365d2dfe45ccULL}}) {
    SCOPED_TRACE(p.name);
    EXPECT_EQ(p.bytes->size(), p.size);
    EXPECT_EQ(fnv1a(*p.bytes), p.hash);
    std::string err;
    const auto restored = ScenarioRunner::restore(*p.bytes, &err);
    ASSERT_NE(restored, nullptr) << err;
    std::vector<std::uint8_t> again;
    ASSERT_TRUE(restored->save_now(&again, &err)) << err;
    EXPECT_EQ(again, *p.bytes);
  }
}

// ------------------------------------------------- snapshot robustness
//
// Every case feeds a damaged snapshot to restore() and requires a clean
// diagnosed failure: nullptr + non-empty error, no crash, no partial
// runner. The header is 20 bytes (magic | version | size | crc); the
// payload is a sequence of [fourcc u32 | len u64 | body] sections.

constexpr std::size_t kHeaderSize = 20;

/// Re-stamps the header's payload size + CRC after an edit, so the test
/// reaches section-level validation instead of tripping the CRC gate.
void restamp(std::vector<std::uint8_t>* bytes) {
  const std::uint64_t size = bytes->size() - kHeaderSize;
  std::memcpy(bytes->data() + 8, &size, 8);
  const std::uint32_t crc =
      crc32(std::string_view(reinterpret_cast<const char*>(bytes->data()) +
                                 kHeaderSize,
                             bytes->size() - kHeaderSize));
  std::memcpy(bytes->data() + 16, &crc, 4);
}

/// Byte offset of the section tagged `tag` (the fourcc itself).
std::size_t section_offset(const std::vector<std::uint8_t>& bytes,
                           std::uint32_t tag) {
  std::size_t pos = kHeaderSize;
  while (pos + 12 <= bytes.size()) {
    std::uint32_t t;
    std::uint64_t len;
    std::memcpy(&t, bytes.data() + pos, 4);
    std::memcpy(&len, bytes.data() + pos + 4, 8);
    if (t == tag) return pos;
    pos += 12 + len;
  }
  ADD_FAILURE() << "section " << fourcc_name(tag) << " not found";
  return 0;
}

/// The traffic monitor's fields at the head of the DGMS body: the EWMA
/// estimate (u64 count, then u64 pair key + f64 value per entry), the
/// current window (u64 count, then u64 pair key + u64 flows per entry)
/// and the f64 flow mass.
struct TrafficFields {
  std::size_t estimate_at = 0;  ///< the estimate's count
  std::uint64_t estimate = 0;
  std::size_t window_at = 0;  ///< the window's count
  std::uint64_t window = 0;
  std::size_t mass_at = 0;
  std::size_t end = 0;
};

TrafficFields traffic_fields(const std::vector<std::uint8_t>& bytes) {
  TrafficFields f;
  f.estimate_at = section_offset(bytes, fourcc("DGMS")) + 12;
  std::memcpy(&f.estimate, bytes.data() + f.estimate_at, 8);
  f.window_at = f.estimate_at + 8 + 16 * f.estimate;
  std::memcpy(&f.window, bytes.data() + f.window_at, 8);
  f.mass_at = f.window_at + 8 + 16 * f.window;
  f.end = f.mass_at + 8;
  return f;
}

/// Restores `bytes` after `edit` and a re-stamp; requires a diagnosed
/// failure whose message contains `expected`.
template <class Edit>
void expect_edit_diagnosed(const std::vector<std::uint8_t>& valid,
                           const std::string& expected, Edit&& edit) {
  auto bytes = valid;
  edit(bytes);
  restamp(&bytes);
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr)
      << "restore accepted it (expected: " << expected << ")";
  EXPECT_NE(err.find(expected), std::string::npos) << err;
}

void expect_diagnosed_failure(const std::vector<std::uint8_t>& bytes,
                              const std::string& what) {
  std::string err;
  const auto restored = ScenarioRunner::restore(bytes, &err);
  EXPECT_EQ(restored, nullptr) << what << ": restore accepted damaged input";
  EXPECT_FALSE(err.empty()) << what << ": no diagnosis";
}

TEST(CkptRobustnessTest, EmptyAndHeaderOnlyFiles) {
  expect_diagnosed_failure({}, "empty file");
  std::vector<std::uint8_t> header(valid_snapshot().begin(),
                                   valid_snapshot().begin() + kHeaderSize);
  expect_diagnosed_failure(header, "header-only file");
}

TEST(CkptRobustnessTest, BadMagic) {
  auto bytes = valid_snapshot();
  bytes[0] ^= 0xFF;
  expect_diagnosed_failure(bytes, "bad magic");
}

TEST(CkptRobustnessTest, VersionSkew) {
  auto bytes = valid_snapshot();
  const std::uint32_t future = kFormatVersion + 1;
  std::memcpy(bytes.data() + 4, &future, 4);
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr);
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(CkptRobustnessTest, PreviousFormatVersionIsRejected) {
  // Each version bump so far removed a key from the embedded canonical
  // spec text (2: runtime.mode, 3: runtime.sync_window,
  // 4: batching.flow_batch_size, 6: dynamic_regrouping,
  // min_update_interval and min_update_flow_evidence) or moved state
  // between sections (5: the stats window's traffic counts, from SWCH to
  // DGMS; 6 also drops the maintainer's copy of the DGM cooldown clock
  // from DGMS), so an older snapshot would not even parse; the version
  // gate must reject it up front.
  auto bytes = valid_snapshot();
  const std::uint32_t previous = kFormatVersion - 1;
  std::memcpy(bytes.data() + 4, &previous, 4);
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr);
  EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(CkptRobustnessTest, CrcMismatch) {
  auto bytes = valid_snapshot();
  bytes[bytes.size() / 2] ^= 0x01;  // payload flip without restamp
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr);
  EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

TEST(CkptRobustnessTest, TruncationAtEveryRegion) {
  const auto& valid = valid_snapshot();
  for (const std::size_t keep :
       {std::size_t{3}, kHeaderSize - 1, kHeaderSize + 7,
        valid.size() / 4, valid.size() / 2, valid.size() - 1}) {
    std::vector<std::uint8_t> bytes(valid.begin(), valid.begin() + keep);
    expect_diagnosed_failure(bytes,
                             "truncated to " + std::to_string(keep) + "B");
  }
}

TEST(CkptRobustnessTest, TrailingGarbageAfterFinalSection) {
  auto bytes = valid_snapshot();
  bytes.insert(bytes.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  restamp(&bytes);
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr);
  EXPECT_NE(err.find("trailing"), std::string::npos) << err;
}

TEST(CkptRobustnessTest, EveryTopLevelSectionTagIsEnforced) {
  // Damaging each section's tag must produce a diagnosis naming the
  // expected section — proving the reader walks all twelve in order and
  // never silently skips one.
  const char* const kSections[] = {"SPEC", "META", "CONF", "GRPG",
                                   "TOPO", "CTRL", "SWCH", "WHEL",
                                   "DGMS", "RNGS", "SIMU", "METR"};
  for (const char* name : kSections) {
    char tag4[5] = {name[0], name[1], name[2], name[3], '\0'};
    const std::uint32_t tag = fourcc(tag4);
    auto bytes = valid_snapshot();
    const std::size_t at = section_offset(bytes, tag);
    bytes[at] ^= 0x20;  // corrupt the fourcc
    restamp(&bytes);
    std::string err;
    EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr)
        << "section " << name;
    EXPECT_NE(err.find(name), std::string::npos)
        << "section " << name << " not named in: " << err;
  }
}

TEST(CkptRobustnessTest, OversizedSectionLengthCannotEscapePayload) {
  auto bytes = valid_snapshot();
  const std::size_t at = section_offset(bytes, fourcc("META"));
  const std::uint64_t huge = std::uint64_t{1} << 56;
  std::memcpy(bytes.data() + at + 4, &huge, 8);
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "oversized META length");
}

TEST(CkptRobustnessTest, CountBombInClibCannotDriveAllocation) {
  // The CTRL body starts with the C-LIB entry count; a huge value must
  // fail the remaining-bytes validation, not allocate.
  auto bytes = valid_snapshot();
  const std::size_t at = section_offset(bytes, fourcc("CTRL"));
  const std::uint64_t bomb = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + at + 12, &bomb, 8);
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "C-LIB count bomb");
}

TEST(CkptRobustnessTest, GroupCountBombCannotDriveAllocation) {
  // The GRPG body is the switch -> group map (u64 count, u32 per switch)
  // followed by the group count; a count above the switch count must
  // fail the restore, not size the per-group G-FIB and member vectors.
  auto bytes = valid_snapshot();
  const std::size_t body = section_offset(bytes, fourcc("GRPG")) + 12;
  std::uint64_t switches = 0;
  std::memcpy(&switches, bytes.data() + body, 8);
  ASSERT_EQ(switches, 12u);
  const std::size_t at = body + 8 + 4 * switches;
  std::uint64_t groups = 0;
  std::memcpy(&groups, bytes.data() + at, 8);
  ASSERT_EQ(groups, 3u);
  const std::uint64_t bomb = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + at, &bomb, 8);
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "group count bomb");
}

TEST(CkptRobustnessTest, TrafficPairOutsideTopologyIsDiagnosed) {
  // The DGMS body starts with the traffic monitor's EWMA entries (u64
  // count, then u64 switch-pair key + f64 per entry); the intensity graph
  // a regrouping round builds is indexed by both switches of a key, so a
  // switch outside the topology must fail the restore.
  auto bytes = valid_snapshot();
  const std::size_t body = section_offset(bytes, fourcc("DGMS")) + 12;
  std::uint64_t entries = 0;
  std::memcpy(&entries, bytes.data() + body, 8);
  ASSERT_GE(entries, 1u);
  const std::uint64_t key = (std::uint64_t{5} << 32) | 1000000;
  std::memcpy(bytes.data() + body + 8, &key, 8);
  restamp(&bytes);
  std::string err;
  EXPECT_EQ(ScenarioRunner::restore(bytes, &err), nullptr)
      << "restore accepted a traffic pair outside the topology";
  EXPECT_NE(err.find("traffic pair"), std::string::npos) << err;
}

TEST(CkptRobustnessTest, NonFiniteTrafficEstimateIsDiagnosed) {
  // roll_window drops every estimate below the prune threshold, so no
  // live monitor holds one; a restored NaN or infinity would silently
  // steer every later regrouping.
  const auto& valid = valid_snapshot();
  const TrafficFields f = traffic_fields(valid);
  ASSERT_GE(f.estimate, 1u);
  const std::size_t value_at = f.estimate_at + 8 + 8;  // first entry's f64
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(), -1.0, 0.0, 1e-4}) {
    SCOPED_TRACE(bad);
    expect_edit_diagnosed(valid, "traffic estimate", [&](auto& bytes) {
      std::memcpy(bytes.data() + value_at, &bad, 8);
    });
  }
}

TEST(CkptRobustnessTest, TrafficMassAndWindowCountsAreDiagnosed) {
  const auto& valid = regroup_run().snapshots()[0].bytes;
  const TrafficFields f = traffic_fields(valid);
  ASSERT_GE(f.window, 1u) << "the fence must sit mid stats window";
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    SCOPED_TRACE(bad);
    expect_edit_diagnosed(valid, "traffic flow mass", [&](auto& bytes) {
      std::memcpy(bytes.data() + f.mass_at, &bad, 8);
    });
  }
  expect_edit_diagnosed(valid, "traffic window counts 0", [&](auto& bytes) {
    const std::uint64_t zero = 0;
    std::memcpy(bytes.data() + f.window_at + 8 + 8, &zero, 8);
  });
}

TEST(CkptRobustnessTest, TrafficPairsOutOfOrderAreDiagnosed) {
  // roll_window merges the estimate and the window as ascending key
  // lists, so each must ascend strictly and hold pair keys only.
  const auto& valid = valid_snapshot();
  const TrafficFields f = traffic_fields(valid);
  ASSERT_GE(f.estimate, 2u);
  const std::size_t first = f.estimate_at + 8;
  expect_edit_diagnosed(valid, "out of order", [&](auto& bytes) {
    std::swap_ranges(bytes.begin() + first, bytes.begin() + first + 16,
                     bytes.begin() + first + 16);
  });
  expect_edit_diagnosed(valid, "out of order", [&](auto& bytes) {
    std::copy_n(bytes.begin() + first, 16, bytes.begin() + first + 16);
  });
  // Switches 3 and 3; then 5 above 2, packed the wrong way round.
  for (const std::uint64_t key :
       {(std::uint64_t{3} << 32) | 3, (std::uint64_t{2} << 32) | 5}) {
    expect_edit_diagnosed(valid, "two distinct switches", [&](auto& bytes) {
      std::memcpy(bytes.data() + first, &key, 8);
    });
  }
}

/// Where a snapshot list of fixed-size entries sits: its u64 count,
/// then the entries.
struct SortedList {
  std::size_t count_at = 0;
  std::uint64_t entries = 0;
  std::size_t entry_bytes = 0;

  [[nodiscard]] std::size_t at(std::uint64_t i) const {
    return count_at + 8 + entry_bytes * i;
  }
};

/// Reads the u64 at `pos` and moves past it.
std::uint64_t read_u64(const std::vector<std::uint8_t>& bytes,
                       std::size_t& pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, 8);
  pos += 8;
  return v;
}

/// The C-LIB at the head of the CTRL body: per entry a u64 MAC and u32
/// host, tenant and switch.
SortedList clib_entries(const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = section_offset(bytes, fourcc("CTRL")) + 12;
  SortedList list{pos, 0, 20};
  list.entries = read_u64(bytes, pos);
  return list;
}

TEST(CkptRobustnessTest, ClibKeyOutsideTheTopologyIsDiagnosed) {
  // The last entry keeps the keys ascending, so only the key's meaning is
  // wrong: a host index past the topology, or not a host MAC at all (a
  // switch management MAC, first octet 0x06).
  const auto& valid = valid_snapshot();
  const SortedList clib = clib_entries(valid);
  ASSERT_GE(clib.entries, 1u);
  const std::size_t last = clib.at(clib.entries - 1);
  const auto set_key = [&](std::uint64_t key) {
    return [&, key](auto& bytes) { std::memcpy(bytes.data() + last, &key, 8); };
  };
  expect_edit_diagnosed(valid, "topology has",
                        set_key(MacAddress::for_host(1'000'000).bits()));
  expect_edit_diagnosed(valid, "is not a host MAC",
                        set_key(0x0600'0000'0000ULL));
}

TEST(CkptRobustnessTest, ValuesOutsideTheirFieldAreDiagnosed) {
  // A save never writes these, and a restore that took them would save
  // other bytes: a MAC with bits above 48 (read as its low 48 bits) and
  // a boolean byte other than 0 or 1.
  const auto& valid = valid_snapshot();
  const SortedList clib = clib_entries(valid);
  ASSERT_GE(clib.entries, 1u);
  expect_edit_diagnosed(valid, "does not fit its field", [&](auto& bytes) {
    bytes[clib.at(0) + 7] = 0xFF;
  });
  // META: u32 index, i64 fence time, the extra fences (u64 count, i64
  // each), three u64 event counts, then the invariant-checks flag.
  std::size_t flag_at = section_offset(valid, fourcc("META")) + 12 + 12;
  flag_at += 8 * read_u64(valid, flag_at) + 24;
  ASSERT_EQ(valid[flag_at], 0u);
  expect_edit_diagnosed(valid, "boolean byte 2",
                        [&](auto& bytes) { bytes[flag_at] = 2; });
}

TEST(CkptRobustnessTest, ClibEntryForAnotherHostIsDiagnosed) {
  // An entry records the host its MAC names; one naming a neighbour
  // would answer lookups for the wrong host.
  const auto& valid = valid_snapshot();
  const SortedList clib = clib_entries(valid);
  ASSERT_GE(clib.entries, 2u);
  const std::size_t host_at = clib.at(0) + 8;
  std::uint32_t host = 0;
  std::memcpy(&host, valid.data() + host_at, 4);
  expect_edit_diagnosed(valid, "records host", [&](auto& bytes) {
    const std::uint32_t other = host + 1;
    std::memcpy(bytes.data() + host_at, &other, 4);
  });
}

/// The first flow rule in SWCH, as the offset of its match flags byte.
/// Per switch: the group, designated peer and transition time (u32, u32,
/// i64), the L-FIB (u64 count, 16 bytes per entry), the flow table's
/// capacity, evictions and next expiry (8 bytes each) and its rule
/// count. A rule starts with its i64 priority, then the flags byte, the
/// u32 tenant and the u64 source and destination MACs.
struct FlowRuleAt {
  std::uint32_t sw = 0;
  std::size_t flags = 0;
};

FlowRuleAt first_flow_rule(const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = section_offset(bytes, fourcc("SWCH")) + 12;
  const std::uint64_t switches = read_u64(bytes, pos);
  for (std::uint32_t sw = 0; sw < switches; ++sw) {
    pos += 16;
    pos += 16 * read_u64(bytes, pos);
    pos += 24;
    if (read_u64(bytes, pos) > 0) return {sw, pos + 8};
  }
  ADD_FAILURE() << "no switch holds a flow rule";
  return {};
}

TEST(CkptRobustnessTest, UnknownFlowRuleMatchFlagsAreDiagnosed) {
  // Bits 0-2 of a rule's flags byte say whether it matches the tenant,
  // the source and the destination; a save sets no other bit, and a
  // restore that ignored one would save other bytes.
  const auto& valid = valid_snapshot();
  const FlowRuleAt rule = first_flow_rule(valid);
  ASSERT_LE(valid[rule.flags], 7u);
  const std::string expected = "switch " + std::to_string(rule.sw) +
                               " flow rule 0 has unknown match flags";
  for (const std::uint8_t bit : {0x08, 0x10, 0x80}) {
    SCOPED_TRACE(static_cast<int>(bit));
    expect_edit_diagnosed(valid, expected,
                          [&](auto& bytes) { bytes[rule.flags] |= bit; });
  }
}

TEST(CkptRobustnessTest, FlowRuleWildcardWithValueIsDiagnosed) {
  // A wildcarded match field travels as a clear flag bit and a 0. A
  // value under a clear bit would restore as the wildcard and save as 0,
  // so each field, wildcarded and given a value, must fail the restore.
  const auto& valid = valid_snapshot();
  const FlowRuleAt rule = first_flow_rule(valid);
  const struct {
    std::uint8_t bit;
    std::size_t offset;  ///< from the flags byte
    std::size_t width;
    const char* message;
  } fields[] = {{1, 1, 4, "wildcards the tenant but carries tenant 7"},
                {2, 5, 8, "wildcards the source MAC"},
                {4, 13, 8, "wildcards the destination MAC"}};
  for (const auto& f : fields) {
    SCOPED_TRACE(f.message);
    const std::string expected = "switch " + std::to_string(rule.sw) +
                                 " flow rule 0 " + f.message;
    expect_edit_diagnosed(valid, expected, [&](auto& bytes) {
      bytes[rule.flags] &= static_cast<std::uint8_t>(~f.bit);
      const std::uint64_t value = 7;
      std::memcpy(bytes.data() + rule.flags + f.offset, &value, f.width);
    });
  }
}

/// The dormant and the excluded hosts in GRPG, u32 each: after the
/// switch -> group map (u64 count, u32 per switch), the group count and
/// the grouping epoch.
std::pair<SortedList, SortedList> hidden_hosts(
    const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = section_offset(bytes, fourcc("GRPG")) + 12;
  pos += 4 * read_u64(bytes, pos) + 16;
  SortedList dormant{pos, 0, 4};
  dormant.entries = read_u64(bytes, pos);
  pos += 4 * dormant.entries;
  SortedList excluded{pos, 0, 4};
  excluded.entries = read_u64(bytes, pos);
  return {dormant, excluded};
}

/// The first failure wheel in WHEL with at least two reported failures
/// and two miss counters: its reports (a u64 key each) and its miss
/// counters (u64 key, i64 misses). Both are empty when no wheel has them.
std::pair<SortedList, SortedList> wheel_keys(
    const std::vector<std::uint8_t>& bytes) {
  std::size_t pos = section_offset(bytes, fourcc("WHEL")) + 12;
  for (std::uint64_t wheels = read_u64(bytes, pos); wheels > 0; --wheels) {
    const std::uint64_t members = read_u64(bytes, pos);
    pos += 4 * members + 4;           // members, designated
    pos += 4 * read_u64(bytes, pos);  // backups
    pos += 5 * members + 1 + 8;       // member flags, running, timer
    for (std::uint64_t events = read_u64(bytes, pos); events > 0; --events) {
      pos += 8 + 4 + 1;              // at, subject, kind
      pos += read_u64(bytes, pos);   // action text
    }
    SortedList reported{pos, 0, 8};
    reported.entries = read_u64(bytes, pos);
    pos += 8 * reported.entries;
    SortedList misses{pos, 0, 16};
    misses.entries = read_u64(bytes, pos);
    pos += 16 * misses.entries;
    pos += 12 * read_u64(bytes, pos);  // pending reboots
    if (reported.entries >= 2 && misses.entries >= 2) {
      return {reported, misses};
    }
  }
  return {};
}

TEST(CkptRobustnessTest, SortedKeysOutOfOrderAreDiagnosed) {
  // A set or map travels as its entries in ascending key order, and the
  // C-LIB in host order. A repeated key would be inserted once and its
  // twin dropped (or overwrite its twin's C-LIB slot), silently, so a
  // swapped pair or a repeated entry must fail the restore.
  const auto& valid = keys_snapshot();
  const auto [dormant, excluded] = hidden_hosts(valid);
  const auto [reported, misses] = wheel_keys(valid);
  const struct {
    const char* message;
    SortedList list;
  } cases[] = {{"C-LIB keys out of order", clib_entries(valid)},
               {"dormant hosts out of order", dormant},
               {"excluded hosts out of order", excluded},
               {"wheel reports out of order", reported},
               {"wheel miss counts out of order", misses}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.message);
    ASSERT_GE(c.list.entries, 2u);
    const std::size_t e0 = c.list.at(0);
    const std::size_t e1 = c.list.at(1);
    const std::size_t n = c.list.entry_bytes;
    expect_edit_diagnosed(valid, c.message, [&](auto& bytes) {
      std::swap_ranges(bytes.begin() + e0, bytes.begin() + e0 + n,
                       bytes.begin() + e1);
    });
    expect_edit_diagnosed(valid, c.message, [&](auto& bytes) {
      std::copy_n(bytes.begin() + e0, n, bytes.begin() + e1);
    });
  }
}

TEST(CkptRobustnessTest, CorruptEmbeddedSpecIsDiagnosed) {
  // The SPEC body is a length-prefixed string holding the scenario text;
  // mangling a byte of the text must surface the parser's diagnosis.
  auto bytes = valid_snapshot();
  const std::size_t at = section_offset(bytes, fourcc("SPEC"));
  bytes[at + 12 + 8 + 1] = 0x01;  // section hdr + string length + 1 byte in
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "mangled scenario text");
}

TEST(CkptRobustnessTest, DescriptorKindOutOfRangeIsDiagnosed) {
  // Zero the SIMU descriptor table's clock/counter block so every
  // pending tuple fails the id/seq validation against the counters.
  auto bytes = valid_snapshot();
  const std::size_t at = section_offset(bytes, fourcc("SIMU"));
  for (std::size_t i = 0; i < 32; ++i) bytes[at + 12 + i] = 0;
  restamp(&bytes);
  expect_diagnosed_failure(bytes, "zeroed simulator counters");
}

TEST(CkptRobustnessTest, SingleByteFlipsNeverCrash) {
  // Every payload byte flipped in turn (CRC restamped so section decoding
  // actually runs): restore must either fail with a diagnosis or return
  // a runner whose finish() replays to the horizon — never crash, hang,
  // throw or read out of bounds.
  const auto& valid = valid_snapshot();
  std::size_t rejected = 0;
  std::size_t finished = 0;
  for (std::size_t at = kHeaderSize; at < valid.size(); ++at) {
    auto bytes = valid;
    bytes[at] ^= 0xFF;
    restamp(&bytes);
    std::string err;
    const auto restored = ScenarioRunner::restore(bytes, &err);
    if (restored == nullptr) {
      EXPECT_FALSE(err.empty()) << "undiagnosed failure at offset " << at;
      ++rejected;
    } else {
      EXPECT_TRUE(restored->finish(&err)) << "offset " << at << ": " << err;
      ++finished;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(finished, 0u);
}

TEST(CkptRobustnessTest, DgmsByteFlipsFinishOrAreDiagnosed) {
  // Every byte of the regrouping fixture's traffic-monitor fields
  // (estimate, window, flow mass) flipped in turn: a snapshot restore
  // accepts must finish its replay, whose regrouping rounds read the
  // estimate back into intensity graphs and splits.
  const auto& valid = regroup_run().snapshots()[0].bytes;
  const TrafficFields f = traffic_fields(valid);
  ASSERT_GE(f.estimate, 1u);
  ASSERT_GE(f.window, 1u);
  std::size_t rejected = 0;
  std::size_t finished = 0;
  for (std::size_t at = f.estimate_at; at < f.end; ++at) {
    auto bytes = valid;
    bytes[at] ^= 0xFF;
    restamp(&bytes);
    std::string err;
    const auto restored = ScenarioRunner::restore(bytes, &err);
    if (restored == nullptr) {
      EXPECT_FALSE(err.empty()) << "undiagnosed failure at offset " << at;
      ++rejected;
    } else {
      EXPECT_TRUE(restored->finish(&err)) << "offset " << at << ": " << err;
      ++finished;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(finished, 0u);
}

// ------------------------------------------------- snapshot footprint

TEST(CkptTest, SwitchSectionStaysSmallOnAWideNetwork) {
  // 600 switches hosting two tenants spread over all of them, so flows
  // leave every switch for peers up to the highest id before the fence.
  // The stats window's traffic counts travel per switch pair in DGMS; a
  // per-switch array indexed by peer id would put ~600 counters into every
  // SWCH record (~2.5 MB here).
  auto runner = std::make_unique<ScenarioRunner>(parse_or_die(R"([scenario]
name = ckpt_wide
description = wide network footprint
seed = 3

[topology]
switches = 600
tenants = 2
min_vms_per_tenant = 1200
max_vms_per_tenant = 1200
vms_per_switch = 4

[workload]
kind = synthetic
flows = 30000
horizon = 10m
profile = flat

[config]
mode = openflow

[events]
at=9m checkpoint_at
)"));
  std::string err;
  ASSERT_TRUE(runner->run(&err)) << err;
  ASSERT_EQ(runner->snapshots().size(), 1u);
  const std::vector<std::uint8_t>& bytes = runner->snapshots()[0].bytes;
  ASSERT_FALSE(bytes.empty()) << runner->snapshots()[0].error;
  const std::size_t at = section_offset(bytes, fourcc("SWCH"));
  std::uint64_t len = 0;
  std::memcpy(&len, bytes.data() + at + 4, 8);
  EXPECT_LT(len, 1'000'000u) << "SWCH section of 600 switches";
}

// ------------------------------------------------------------- codec
//
// The robustness tests above restamp every edit with crc32() itself, so
// only these pin the CRC and the word layout to fixed values.

/// CRC-32 one bit at a time, straight from the reflected polynomial.
std::uint32_t crc32_reference(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFU;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(crc32(""), 0x00000000U);
  EXPECT_EQ(crc32("a"), 0xE8B7BE43U);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926U);
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339U);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  std::mt19937_64 gen(27);
  std::vector<unsigned char> buf(300 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(gen());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(crc32(std::string_view(reinterpret_cast<const char*>(p), len)),
                crc32_reference(p, len))
          << "length " << len << " at offset " << offset;
    }
  }
}

/// Two sections holding every write kind, as Writer must lay them out:
/// header (magic, version, payload size 93, payload CRC 0xDC5542F0 from
/// an independent CRC-32), then [fourcc | u64 body length | body] twice.
constexpr std::uint8_t kWriterGolden[] = {
    0x4C, 0x5A, 0x43, 0x4B, 0x06, 0x00, 0x00, 0x00, 0x5D, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0xF0, 0x42, 0x55, 0xDC, 0x41, 0x41, 0x41, 0x41,
    0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xA5, 0x04, 0x03, 0x02,
    0x01, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0xFE, 0xFF, 0xFF,
    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8,
    0xBF, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x68, 0x69,
    0x42, 0x42, 0x42, 0x42, 0x1D, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x80, 0x9A, 0x99, 0x99, 0x99, 0x99, 0x99, 0xB9, 0x3F, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00,
};

TEST(WriterTest, GoldenBytesAndReadBack) {
  Writer w;
  w.begin_section(fourcc("AAAA"));
  w.u8(0xA5);
  w.u32(0x01020304U);
  w.u64(0x1122334455667788ULL);
  w.i64(-2);
  w.f64(-1.5);
  w.boolean(true);
  w.str("hi");
  w.end_section();
  w.begin_section(fourcc("BBBB"));
  w.boolean(false);
  w.u32(0xFFFFFFFFU);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.f64(0.1);
  w.str("");
  w.end_section();
  const std::vector<std::uint8_t> bytes = w.finish();

  // The version field follows kFormatVersion; every other byte is fixed.
  std::vector<std::uint8_t> want(std::begin(kWriterGolden),
                                 std::end(kWriterGolden));
  for (int i = 0; i < 4; ++i) {
    want[4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(kFormatVersion >> (8 * i));
  }
  EXPECT_EQ(bytes, want);

  Reader r(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                            bytes.size()));
  ASSERT_TRUE(r.ok()) << r.error();
  ASSERT_TRUE(r.enter_section(fourcc("AAAA"))) << r.error();
  EXPECT_EQ(r.u8(), 0xA5);
  EXPECT_EQ(r.u32(), 0x01020304U);
  EXPECT_EQ(r.u64(), 0x1122334455667788ULL);
  EXPECT_EQ(r.i64(), -2);
  EXPECT_EQ(r.f64(), -1.5);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hi");
  r.leave_section();
  ASSERT_TRUE(r.enter_section(fourcc("BBBB"))) << r.error();
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.u32(), 0xFFFFFFFFU);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(r.str(), "");
  r.leave_section();
  EXPECT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.offset(), bytes.size());
}

// ------------------------------------------------------- file helpers

TEST(CkptFileTest, WriteReadRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "ckpt_test_snapshot.bin";
  std::string err;
  ASSERT_TRUE(write_snapshot_file(path.string(), valid_snapshot(), &err))
      << err;
  std::vector<std::uint8_t> back;
  ASSERT_TRUE(read_snapshot_file(path.string(), &back, &err)) << err;
  EXPECT_EQ(back, valid_snapshot());
  fs::remove(path);
}

TEST(CkptFileTest, MissingFileFailsWithError) {
  std::vector<std::uint8_t> out;
  std::string err;
  EXPECT_FALSE(read_snapshot_file("/nonexistent/dir/snap.bin", &out, &err));
  EXPECT_FALSE(err.empty());
}

}  // namespace
}  // namespace lazyctrl::ckpt
