// Tests for the Dynamic Group Maintenance subsystem: traffic monitoring,
// drift-detection thresholds, migration-plan correctness (no switch
// unassigned, size limit respected, LFIB/GFIB consistent after apply) and
// determinism under a fixed seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/network.h"
#include "dgm/dgm.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl::dgm {
namespace {

// --- TrafficMonitor ---

TEST(TrafficMonitorTest, RecordAndRollFoldsWindowIntoEwma) {
  TrafficMonitor m(4, {1 * kMinute, 0.5, 1e-3});
  m.record_flow(SwitchId{0}, SwitchId{1}, 10);
  m.record_flow(SwitchId{1}, SwitchId{0}, 10);  // same unordered pair
  m.record_flow(SwitchId{2}, SwitchId{2}, 99);  // same-switch: ignored
  EXPECT_DOUBLE_EQ(m.flow_mass(), 0.0);         // window not yet closed
  m.roll_window();
  EXPECT_DOUBLE_EQ(m.flow_mass(), 20.0);
  m.roll_window();  // decay only
  EXPECT_DOUBLE_EQ(m.flow_mass(), 10.0);

  // Intensity graph: decayed count / window seconds.
  const graph::WeightedGraph g = m.intensity_graph();
  ASSERT_EQ(g.vertex_count(), 4u);
  EXPECT_NEAR(g.total_edge_weight(), 10.0 / 60.0, 1e-12);
}

TEST(TrafficMonitorTest, PrunesNegligibleResidue) {
  TrafficMonitor m(2, {1 * kMinute, 0.1, 1e-3});
  m.record_flow(SwitchId{0}, SwitchId{1}, 1);
  m.roll_window();
  EXPECT_EQ(m.tracked_pairs(), 1u);
  for (int i = 0; i < 4; ++i) m.roll_window();  // 1 * 0.1^4 < 1e-3
  EXPECT_EQ(m.tracked_pairs(), 0u);
}

TEST(TrafficMonitorTest, SplitClassifiesByGrouping) {
  TrafficMonitor m(4, {1 * kMinute, 0.9, 1e-3});
  m.record_flow(SwitchId{0}, SwitchId{1}, 30);  // intra (group 0)
  m.record_flow(SwitchId{2}, SwitchId{3}, 50);  // intra (group 1)
  m.record_flow(SwitchId{1}, SwitchId{2}, 20);  // inter
  m.roll_window();

  core::Grouping g;
  g.switch_to_group = {0, 0, 1, 1};
  g.group_count = 2;
  const auto split = m.split(g);
  EXPECT_DOUBLE_EQ(split.intra, 80.0);
  EXPECT_DOUBLE_EQ(split.inter, 20.0);
  EXPECT_DOUBLE_EQ(split.inter_fraction(), 0.2);
}

/// Reference traffic monitor over hash maps (TrafficMonitor's earlier
/// layout): an unordered_map estimate and window, and a roll that decays
/// every value, adds the window in sorted key order, then prunes.
/// TrafficMonitor's flat tables must match it bit for bit.
class ReferenceMonitor {
 public:
  ReferenceMonitor(std::size_t switch_count, TrafficMonitorOptions options)
      : switch_count_(switch_count), options_(options) {
    options_.ewma_decay = std::clamp(options_.ewma_decay, 0.0, 0.999);
  }

  void record_flow(SwitchId src, SwitchId dst, std::uint64_t count) {
    if (src == dst || count == 0) return;
    window_[pair_key(src, dst)] += count;
  }

  void roll_window() {
    const double decay = options_.ewma_decay;
    for (auto& [key, value] : ewma_) value *= decay;
    flow_mass_ *= decay;
    for (const std::uint64_t key : sorted_keys(window_)) {
      const auto count = static_cast<double>(window_.at(key));
      ewma_[key] += count;
      flow_mass_ += count;
    }
    window_.clear();
    std::erase_if(ewma_, [this](const auto& kv) {
      return kv.second < options_.prune_threshold;
    });
  }

  [[nodiscard]] double flow_mass() const { return flow_mass_; }
  [[nodiscard]] std::size_t tracked_pairs() const { return ewma_.size(); }
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> entries()
      const {
    std::vector<std::pair<std::uint64_t, double>> out;
    for (const std::uint64_t key : sorted_keys(ewma_)) {
      out.emplace_back(key, ewma_.at(key));
    }
    return out;
  }

  [[nodiscard]] graph::WeightedGraph intensity_graph() const {
    graph::WeightedGraph g(switch_count_);
    const double window_sec = to_seconds(options_.window);
    for (const auto& [key, value] : entries()) {
      g.add_edge(static_cast<graph::VertexId>(key & 0xFFFFFFFF),
                 static_cast<graph::VertexId>(key >> 32), value / window_sec);
    }
    return g;
  }

  [[nodiscard]] TrafficMonitor::TrafficSplit split(
      const core::Grouping& grouping) const {
    TrafficMonitor::TrafficSplit s;
    const std::size_t n = grouping.switch_to_group.size();
    for (const auto& [key, value] : entries()) {
      const auto hi = static_cast<std::uint32_t>(key >> 32);
      const auto lo = static_cast<std::uint32_t>(key & 0xFFFFFFFF);
      if (hi >= n || lo >= n) continue;
      if (grouping.switch_to_group[lo] == grouping.switch_to_group[hi]) {
        s.intra += value;
      } else {
        s.inter += value;
      }
    }
    return s;
  }

 private:
  static std::uint64_t pair_key(SwitchId a, SwitchId b) {
    std::uint32_t lo = a.value(), hi = b.value();
    if (lo > hi) std::swap(lo, hi);
    return (static_cast<std::uint64_t>(hi) << 32) | lo;
  }
  template <typename Map>
  static std::vector<std::uint64_t> sorted_keys(const Map& m) {
    std::vector<std::uint64_t> keys;
    for (const auto& [key, value] : m) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  std::size_t switch_count_;
  TrafficMonitorOptions options_;
  std::unordered_map<std::uint64_t, double> ewma_;
  std::unordered_map<std::uint64_t, std::uint64_t> window_;
  double flow_mass_ = 0.0;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A graph's (pair key, edge weight) list in ascending key order.
std::vector<std::pair<std::uint64_t, double>> edges_of(
    const graph::WeightedGraph& g) {
  std::vector<std::pair<std::uint64_t, double>> out;
  for (graph::VertexId u = 0; u < g.vertex_count(); ++u) {
    for (const graph::Neighbor& n : g.neighbors(u)) {
      if (n.vertex > u) {
        out.emplace_back((static_cast<std::uint64_t>(n.vertex) << 32) | u,
                         n.weight);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TrafficMonitorTest, MatchesHashMapReference) {
  Rng rng(20261018);
  std::size_t on_threshold = 0;  // estimates that landed exactly on it
  std::size_t empty_rolls = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const std::size_t switches = 2 + rng.next_below(299);  // 2..300
    const double decay = std::array{0.0, 0.5, 0.85, 0.999}[trial % 4];
    // Every other trial prunes at a value a count of 1 reaches exactly:
    // itself (no decay), or decayed twice.
    const double threshold =
        trial % 8 < 4 ? 1e-3 : (decay > 0 ? 1.0 * decay * decay : 1.0);
    // A 1 s window makes each intensity edge weight the estimate itself,
    // so the graph exposes every (key, value) of the flat monitor.
    const TrafficMonitorOptions options{1 * kSecond, decay, threshold};
    TrafficMonitor flat(switches, options);
    ReferenceMonitor ref(switches, options);
    const std::size_t hot = std::min<std::size_t>(switches, 12);
    for (int roll = 0; roll < 40; ++roll) {
      const std::uint64_t records =
          rng.next_bool(0.15) ? 0 : rng.next_below(300);
      for (std::uint64_t i = 0; i < records; ++i) {
        const std::size_t range = rng.next_bool(0.5) ? hot : switches;
        const SwitchId a{static_cast<std::uint32_t>(rng.next_below(range))};
        const SwitchId b{static_cast<std::uint32_t>(rng.next_below(range))};
        const std::uint64_t count =
            rng.next_bool(0.5) ? 1 : 1 + rng.next_below(1000);
        flat.record_flow(a, b, count);
        ref.record_flow(a, b, count);
      }
      if (records == 0) ++empty_rolls;
      flat.roll_window();
      ref.roll_window();

      SCOPED_TRACE("trial " + std::to_string(trial) + " roll " +
                   std::to_string(roll));
      ASSERT_EQ(bits(flat.flow_mass()), bits(ref.flow_mass()));
      ASSERT_EQ(flat.tracked_pairs(), ref.tracked_pairs());
      const graph::WeightedGraph fg = flat.intensity_graph();
      const graph::WeightedGraph rg = ref.intensity_graph();
      const auto expected = ref.entries();
      const auto got = edges_of(fg);
      ASSERT_EQ(got.size(), expected.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].first, expected[i].first);
        ASSERT_EQ(bits(got[i].second), bits(expected[i].second));
        if (expected[i].second == threshold) ++on_threshold;
      }
      ASSERT_EQ(fg.vertex_count(), rg.vertex_count());
      ASSERT_EQ(fg.edge_count(), rg.edge_count());
      ASSERT_EQ(bits(fg.total_edge_weight()), bits(rg.total_edge_weight()));
      for (graph::VertexId u = 0; u < fg.vertex_count(); ++u) {
        const auto fn = fg.neighbors(u);
        const auto rn = rg.neighbors(u);
        ASSERT_EQ(fn.size(), rn.size());
        for (std::size_t i = 0; i < fn.size(); ++i) {
          ASSERT_EQ(fn[i].vertex, rn[i].vertex);
          ASSERT_EQ(bits(fn[i].weight), bits(rn[i].weight));
        }
      }
      // A random grouping, sometimes covering only a prefix of switches.
      core::Grouping grouping;
      grouping.group_count = 1 + rng.next_below(switches);
      grouping.switch_to_group.resize(
          rng.next_bool(0.2) ? rng.next_below(switches + 1) : switches);
      for (std::uint32_t& g : grouping.switch_to_group) {
        g = static_cast<std::uint32_t>(rng.next_below(grouping.group_count));
      }
      const auto fs = flat.split(grouping);
      const auto rs = ref.split(grouping);
      ASSERT_EQ(bits(fs.intra), bits(rs.intra));
      ASSERT_EQ(bits(fs.inter), bits(rs.inter));
    }
  }
  EXPECT_GT(on_threshold, 0u) << "no estimate landed on the prune threshold";
  EXPECT_GT(empty_rolls, 0u);
}

// --- DriftDetector ---

core::Grouping two_groups() {
  core::Grouping g;
  g.switch_to_group = {0, 0, 1, 1};
  g.group_count = 2;
  return g;
}

core::DgmConfig detector_config() {
  core::DgmConfig cfg;
  cfg.inter_fraction_limit = 0.30;
  cfg.degradation_factor = 1.5;
  cfg.degradation_floor = 0.02;
  cfg.size_skew_limit = 0.75;
  cfg.min_flow_evidence = 50.0;
  cfg.cooldown = 2 * kMinute;
  return cfg;
}

TrafficMonitor monitor_with_fraction(double inter_fraction,
                                     double total = 1000.0) {
  TrafficMonitor m(4, {1 * kMinute, 0.9, 1e-9});
  const auto inter = static_cast<std::uint64_t>(total * inter_fraction);
  const auto intra = static_cast<std::uint64_t>(total) - inter;
  if (intra > 0) m.record_flow(SwitchId{0}, SwitchId{1}, intra);
  if (inter > 0) m.record_flow(SwitchId{1}, SwitchId{2}, inter);
  m.roll_window();
  return m;
}

TEST(DriftDetectorTest, QuietBelowThresholds) {
  DriftDetector d(detector_config());
  const TrafficMonitor m = monitor_with_fraction(0.10);
  const DriftVerdict v = d.evaluate(m, two_groups(), 2, 10 * kMinute);
  EXPECT_FALSE(v.triggered());
  EXPECT_NEAR(v.inter_fraction, 0.10, 1e-9);
}

TEST(DriftDetectorTest, AbsoluteThresholdFires) {
  DriftDetector d(detector_config());
  const TrafficMonitor m = monitor_with_fraction(0.40);
  const DriftVerdict v = d.evaluate(m, two_groups(), 2, 10 * kMinute);
  EXPECT_EQ(v.kind, DriftKind::kInterGroupAbsolute);
}

TEST(DriftDetectorTest, EvidenceGateSuppresses) {
  DriftDetector d(detector_config());
  const TrafficMonitor m = monitor_with_fraction(0.40, /*total=*/20.0);
  const DriftVerdict v = d.evaluate(m, two_groups(), 2, 10 * kMinute);
  EXPECT_FALSE(v.triggered());
  EXPECT_LT(v.evidence, 50.0);
}

TEST(DriftDetectorTest, CooldownSuppressesAfterRegroup) {
  DriftDetector d(detector_config());
  const TrafficMonitor m = monitor_with_fraction(0.40);
  d.note_regrouped(0.10, 9 * kMinute);
  EXPECT_FALSE(d.evaluate(m, two_groups(), 2, 10 * kMinute).triggered());
  EXPECT_TRUE(d.evaluate(m, two_groups(), 2, 12 * kMinute).triggered());
}

TEST(DriftDetectorTest, DegradationAgainstBaselineFires) {
  DriftDetector d(detector_config());
  d.note_regrouped(0.10, 0);
  // 0.18 < absolute limit 0.30 but > 1.5 x baseline 0.10.
  const TrafficMonitor m = monitor_with_fraction(0.18);
  const DriftVerdict v = d.evaluate(m, two_groups(), 2, 10 * kMinute);
  EXPECT_EQ(v.kind, DriftKind::kInterGroupDegraded);
}

TEST(DriftDetectorTest, SizeSkewFires) {
  DriftDetector d(detector_config());
  const TrafficMonitor m = monitor_with_fraction(0.05);
  core::Grouping skewed;
  skewed.switch_to_group = {0, 0, 0, 1};
  skewed.group_count = 2;
  // (3 - 1) / limit 2 = 1.0 > 0.75.
  const DriftVerdict v = d.evaluate(m, skewed, 2, 10 * kMinute);
  EXPECT_EQ(v.kind, DriftKind::kGroupSizeSkew);
  EXPECT_DOUBLE_EQ(v.size_skew, 1.0);
}

TEST(GroupSizeSkewTest, BalancedIsZero) {
  EXPECT_DOUBLE_EQ(group_size_skew(two_groups(), 4), 0.0);
}

// --- IncrementalRegrouper ---

/// Intensity graph with `clusters` heavy cliques joined by weak edges.
graph::WeightedGraph clustered(std::size_t clusters, std::size_t size,
                               double intra, double inter) {
  graph::WeightedGraph g(clusters * size);
  for (std::size_t c = 0; c < clusters; ++c) {
    const auto base = static_cast<graph::VertexId>(c * size);
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i + 1; j < size; ++j) {
        g.add_edge(base + i, base + j, intra);
      }
    }
    const auto nxt = static_cast<graph::VertexId>(((c + 1) % clusters) * size);
    g.add_edge(base, nxt, inter);
  }
  return g;
}

core::Grouping block_grouping(std::size_t groups, std::size_t size) {
  core::Grouping g;
  g.group_count = groups;
  for (std::size_t i = 0; i < groups; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      g.switch_to_group.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return g;
}

std::vector<std::size_t> sizes_of(const core::Grouping& g) {
  std::vector<std::size_t> sizes(g.group_count, 0);
  for (std::uint32_t x : g.switch_to_group) ++sizes[x];
  return sizes;
}

TEST(RegrouperTest, MovesDriftedSwitchWithinBudget) {
  // Vertex 0's affinity moved to the other cluster; one move fixes it.
  graph::WeightedGraph g = clustered(2, 8, 5.0, 0.5);
  for (graph::VertexId v = 8; v < 16; ++v) g.add_edge(0, v, 10.0);
  const core::Grouping current = block_grouping(2, 8);

  Rng rng(1);
  IncrementalRegrouper r({.group_size_limit = 10, .max_moves = 4});
  const MigrationPlan plan = r.plan(current, g, rng);
  ASSERT_FALSE(plan.empty());
  EXPECT_LE(plan.moves.size(), 4u);
  ASSERT_GE(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves.front().sw, SwitchId{0});
  EXPECT_LT(plan.inter_after, plan.inter_before);

  // Feasibility: everyone assigned, sizes within limit.
  EXPECT_EQ(plan.after.switch_to_group.size(), 16u);
  for (std::uint32_t x : plan.after.switch_to_group) {
    EXPECT_LT(x, plan.after.group_count);
  }
  for (std::size_t s : sizes_of(plan.after)) EXPECT_LE(s, 10u);
  EXPECT_FALSE(plan.touched.empty());
}

TEST(RegrouperTest, EmptyPlanWhenGroupingOptimal) {
  const graph::WeightedGraph g = clustered(3, 6, 10.0, 0.1);
  Rng rng(2);
  IncrementalRegrouper r({.group_size_limit = 6});
  const MigrationPlan plan = r.plan(block_grouping(3, 6), g, rng);
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.touched.empty());
  EXPECT_EQ(plan.after.switch_to_group, plan.before.switch_to_group);
}

TEST(RegrouperTest, MergesUnderfullGroupsWithMutualTraffic) {
  // Two 3-switch groups talk heavily to each other; limit 8 fits both.
  graph::WeightedGraph g(6);
  for (graph::VertexId u = 0; u < 3; ++u) {
    for (graph::VertexId v = 3; v < 6; ++v) g.add_edge(u, v, 5.0);
  }
  Rng rng(3);
  IncrementalRegrouper r({.group_size_limit = 8, .max_moves = 0});
  const MigrationPlan plan = r.plan(block_grouping(2, 3), g, rng);
  ASSERT_EQ(plan.merges.size(), 1u);
  EXPECT_EQ(plan.after.group_count, 1u);
  EXPECT_DOUBLE_EQ(plan.inter_after, 0.0);
}

TEST(RegrouperTest, MergeSplitRepairsHeavyPairTooBigToMerge) {
  // Two size-8 groups whose boundary drifted: merge is infeasible
  // (16 > limit 9), but a re-cut moves the drifted vertices back with
  // their affinity. Limit 9 leaves one slot of slack so the bisection can
  // cross intermediate states (at a tight limit of 8 no vertex can move).
  graph::WeightedGraph g = clustered(2, 8, 5.0, 0.2);
  for (graph::VertexId v = 8; v < 16; ++v) {
    g.add_edge(0, v, 6.0);
    g.add_edge(1, v, 6.0);
  }
  for (graph::VertexId v = 0; v < 8; ++v) {
    g.add_edge(8, v, 6.0);
    g.add_edge(9, v, 6.0);
  }
  Rng rng(4);
  IncrementalRegrouper r({.group_size_limit = 9, .max_moves = 0});
  const MigrationPlan plan = r.plan(block_grouping(2, 8), g, rng);
  ASSERT_EQ(plan.splits.size(), 1u);
  EXPECT_LT(plan.splits.front().cut_after, plan.splits.front().cut_before);
  EXPECT_LT(plan.inter_after, plan.inter_before);
  for (std::size_t s : sizes_of(plan.after)) EXPECT_LE(s, 9u);
}

TEST(RegrouperTest, DeterministicForSeed) {
  graph::WeightedGraph g = clustered(3, 8, 4.0, 0.5);
  for (graph::VertexId v = 8; v < 16; ++v) g.add_edge(0, v, 7.0);
  const core::Grouping current = block_grouping(3, 8);
  IncrementalRegrouper r({.group_size_limit = 9});
  Rng ra(7), rb(7);
  const MigrationPlan a = r.plan(current, g, ra);
  const MigrationPlan b = r.plan(current, g, rb);
  EXPECT_EQ(a.after.switch_to_group, b.after.switch_to_group);
  EXPECT_EQ(a.moves.size(), b.moves.size());
  EXPECT_EQ(a.splits.size(), b.splits.size());
  EXPECT_DOUBLE_EQ(a.inter_after, b.inter_after);
}

// --- MigrationExecutor ---

struct FakeHost : GroupingHost {
  core::Grouping grouping;
  std::vector<GroupId> last_touched;
  int commits = 0;

  [[nodiscard]] const core::Grouping& current_grouping() const override {
    return grouping;
  }
  void commit_grouping(core::Grouping g,
                       const std::vector<GroupId>& touched) override {
    grouping = std::move(g);
    last_touched = touched;
    ++commits;
  }
};

MigrationPlan drifted_plan(const core::Grouping& current) {
  graph::WeightedGraph g = clustered(2, 8, 5.0, 0.5);
  for (graph::VertexId v = 8; v < 16; ++v) g.add_edge(0, v, 10.0);
  Rng rng(5);
  IncrementalRegrouper r({.group_size_limit = 10, .max_moves = 4});
  return r.plan(current, g, rng);
}

TEST(MigrationExecutorTest, AppliesAndAccountsStagedCost) {
  FakeHost host;
  host.grouping = block_grouping(2, 8);
  const MigrationPlan plan = drifted_plan(host.grouping);
  ASSERT_FALSE(plan.empty());

  MigrationExecutor exec(host);
  const ExecutionReport report = exec.apply(plan);
  ASSERT_TRUE(report.applied) << report.reject_reason;
  EXPECT_EQ(host.commits, 1);
  EXPECT_EQ(host.grouping.switch_to_group, plan.after.switch_to_group);
  EXPECT_EQ(host.last_touched, plan.touched);

  // flow_mods = sum over touched groups of (2 * members + 1).
  std::size_t expected = 0, rebuilds = 0;
  const auto members = plan.after.members();
  for (GroupId t : plan.touched) {
    expected += 2 * members[t.value()].size() + 1;
    rebuilds += members[t.value()].size();
  }
  EXPECT_EQ(report.flow_mods, expected);
  EXPECT_EQ(report.gfib_rebuilds, rebuilds);
  EXPECT_EQ(report.touched_groups, plan.touched.size());
}

TEST(MigrationExecutorTest, RejectsStalePlan) {
  FakeHost host;
  host.grouping = block_grouping(2, 8);
  const MigrationPlan plan = drifted_plan(host.grouping);
  ASSERT_FALSE(plan.empty());
  host.grouping.switch_to_group[3] = 1;  // live grouping moved on

  MigrationExecutor exec(host);
  const ExecutionReport report = exec.apply(plan);
  EXPECT_FALSE(report.applied);
  EXPECT_EQ(host.commits, 0);
}

TEST(MigrationExecutorTest, RejectsPlanViolatingSizeLimit) {
  FakeHost host;
  host.grouping = block_grouping(2, 8);
  MigrationPlan plan = drifted_plan(host.grouping);
  ASSERT_FALSE(plan.empty());
  plan.group_size_limit = 4;  // tighter than any group in `after`

  MigrationExecutor exec(host);
  EXPECT_FALSE(exec.apply(plan).applied);
  EXPECT_EQ(host.commits, 0);
}

// --- end-to-end through core::Network ---

struct DriftScenario {
  topo::Topology topo;
  workload::Trace trace;
};

DriftScenario drift_scenario() {
  Rng topo_rng(11);
  topo::MultiTenantOptions topt;
  topt.switch_count = 24;
  topt.tenant_count = 12;
  topt.min_vms_per_tenant = 10;
  topt.max_vms_per_tenant = 20;
  topt.vms_per_switch = 8;
  DriftScenario s{topo::build_multi_tenant(topt, topo_rng), {}};

  Rng trace_rng(12);
  workload::DriftingLocalityOptions wopt;
  wopt.total_flows = 30'000;
  wopt.community_count = 4;
  wopt.phases = 4;
  wopt.drift_fraction = 0.3;
  wopt.horizon = 2 * kHour;
  s.trace = workload::generate_drifting_locality(s.topo, wopt, trace_rng);
  return s;
}

core::Config dgm_config(core::DgmMode mode) {
  core::Config cfg;
  cfg.mode = core::ControlMode::kLazyCtrl;
  cfg.grouping.group_size_limit = 7;
  cfg.dgm.mode = mode;
  cfg.dgm.maintenance_period = 2 * kMinute;
  cfg.dgm.cooldown = 1 * kMinute;
  return cfg;
}

std::uint64_t run_and_check(const DriftScenario& s, core::ControlMode mode,
                            core::DgmMode dgm_mode,
                            core::RunMetrics* out_metrics_copy = nullptr) {
  core::Config cfg = dgm_config(dgm_mode);
  cfg.mode = mode;
  core::Network net(s.topo, cfg);
  net.bootstrap(workload::build_intensity_graph(s.trace, s.topo, 0,
                                                s.trace.horizon / 4));
  net.replay(s.trace);

  // Invariants after any amount of regrouping:
  const core::Grouping& g = net.grouping();
  if (cfg.mode == core::ControlMode::kLazyCtrl) {
    EXPECT_EQ(g.switch_to_group.size(), s.topo.switch_count());
    const auto members = g.members();
    std::vector<std::size_t> seen(s.topo.switch_count(), 0);
    for (const auto& group : members) {
      EXPECT_LE(group.size(), cfg.grouping.group_size_limit);
      for (SwitchId sw : group) ++seen[sw.value()];
    }
    for (std::size_t c : seen) EXPECT_EQ(c, 1u);  // assigned exactly once

    // LFIB: unchanged by regrouping — exactly the attached hosts.
    // GFIB: every member holds a filter per peer, and peers' hosted MACs
    // are found (Bloom filters have no false negatives).
    for (const auto& group : members) {
      for (SwitchId sw : group) {
        core::EdgeSwitch& es = net.edge_switch(sw);
        EXPECT_EQ(es.lfib().size(), s.topo.hosts_on_switch(sw).size());
        EXPECT_EQ(es.gfib().peer_count(), group.size() - 1);
        for (SwitchId peer : group) {
          if (peer == sw) continue;
          for (HostId h : s.topo.hosts_on_switch(peer)) {
            std::vector<SwitchId> candidates;
            es.gfib().query_into(BloomHash::of(s.topo.host_info(h).mac),
                                 candidates);
            EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                                  peer) != candidates.end());
          }
        }
      }
    }
  }
  if (out_metrics_copy != nullptr) {
    // Copy the scalar counters used by the determinism check.
    out_metrics_copy->flows_inter_group = net.metrics().flows_inter_group;
    out_metrics_copy->dgm_flow_mods = net.metrics().dgm_flow_mods;
    out_metrics_copy->dgm_plans_applied = net.metrics().dgm_plans_applied;
    out_metrics_copy->controller_packet_ins =
        net.metrics().controller_packet_ins;
  }
  if (dgm_mode != core::DgmMode::kOff) {
    const dgm::MaintainerStats* stats = net.dgm_stats();
    EXPECT_NE(stats, nullptr);
    EXPECT_GT(stats->rounds, 0u);
    EXPECT_GE(stats->plans_applied, 1u);
  } else {
    EXPECT_EQ(net.dgm_stats(), nullptr);
  }
  return net.metrics().flows_inter_group;
}

TEST(DgmNetworkTest, MaintainsConsistencyAndReducesInterGroupTraffic) {
  const DriftScenario s = drift_scenario();
  const std::uint64_t inter_static = run_and_check(
      s, core::ControlMode::kLazyCtrl, core::DgmMode::kOff);
  const std::uint64_t inter_dgm = run_and_check(
      s, core::ControlMode::kLazyCtrl, core::DgmMode::kDriftTriggered);
  EXPECT_LT(inter_dgm, inter_static);
}

TEST(DgmNetworkTest, PeriodicModeAlsoApplies) {
  const DriftScenario s = drift_scenario();
  run_and_check(s, core::ControlMode::kLazyCtrl, core::DgmMode::kPeriodic);
}

TEST(DgmNetworkTest, PeriodicModeRespectsCooldown) {
  const DriftScenario s = drift_scenario();
  core::Config cfg = dgm_config(core::DgmMode::kPeriodic);
  cfg.dgm.cooldown = 10 * kMinute;  // much longer than the 2 min period
  core::Network net(s.topo, cfg);
  net.bootstrap(workload::build_intensity_graph(s.trace, s.topo, 0,
                                                s.trace.horizon / 4));
  net.replay(s.trace);

  const dgm::MaintainerStats* stats = net.dgm_stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->plans_applied, 1u);
  SimTime last_applied = -1;
  for (const MaintenanceRound& r : stats->history) {
    if (!r.plan_applied) continue;
    if (last_applied >= 0) {
      EXPECT_GE(r.at - last_applied, cfg.dgm.cooldown);
    }
    last_applied = r.at;
  }
}

TEST(DgmNetworkTest, DeterministicForSeed) {
  const DriftScenario s = drift_scenario();
  core::RunMetrics a(2 * kHour), b(2 * kHour);
  run_and_check(s, core::ControlMode::kLazyCtrl,
                core::DgmMode::kDriftTriggered, &a);
  run_and_check(s, core::ControlMode::kLazyCtrl,
                core::DgmMode::kDriftTriggered, &b);
  EXPECT_EQ(a.flows_inter_group, b.flows_inter_group);
  EXPECT_EQ(a.dgm_flow_mods, b.dgm_flow_mods);
  EXPECT_EQ(a.dgm_plans_applied, b.dgm_plans_applied);
  EXPECT_EQ(a.controller_packet_ins, b.controller_packet_ins);
}

TEST(DgmNetworkTest, OpenFlowModeNeverRunsDgm) {
  const DriftScenario s = drift_scenario();
  core::Config cfg = dgm_config(core::DgmMode::kPeriodic);
  cfg.mode = core::ControlMode::kOpenFlow;
  core::Network net(s.topo, cfg);
  net.bootstrap();
  net.replay(s.trace);
  EXPECT_EQ(net.dgm_stats(), nullptr);
  EXPECT_EQ(net.metrics().dgm_rounds, 0u);
}

}  // namespace
}  // namespace lazyctrl::dgm
