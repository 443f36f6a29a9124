// Tests for the SGI grouping algorithm: IniGroup feasibility/quality and
// IncUpdate's merge-and-split refinement.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <ios>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/sgi.h"
#include "dgm/regrouper.h"
#include "dgm/traffic_monitor.h"
#include "graph/bisection.h"
#include "graph/partition.h"
#include "graph/weighted_graph.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl::core {
namespace {

/// Intensity graph with `clusters` heavy cliques connected weakly.
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

std::vector<std::size_t> group_sizes(const Grouping& g) {
  std::vector<std::size_t> sizes(g.group_count, 0);
  for (std::uint32_t x : g.switch_to_group) ++sizes[x];
  return sizes;
}

TEST(GroupingTest, MembersAndCompact) {
  Grouping g;
  g.switch_to_group = {0, 2, 2, 0};
  g.group_count = 3;
  g.compact();
  EXPECT_EQ(g.group_count, 2u);
  const auto members = g.members();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0], (std::vector<SwitchId>{SwitchId{0}, SwitchId{3}}));
  EXPECT_EQ(members[1], (std::vector<SwitchId>{SwitchId{1}, SwitchId{2}}));
}

TEST(InterGroupIntensityTest, AllInOneGroupIsZero) {
  graph::WeightedGraph g = clustered(2, 4, 1.0, 1.0);
  Grouping grouping;
  grouping.switch_to_group.assign(8, 0);
  grouping.group_count = 1;
  EXPECT_DOUBLE_EQ(inter_group_intensity(g, grouping), 0.0);
}

TEST(InterGroupIntensityTest, FullySeparatedCountsEverything) {
  graph::WeightedGraph g(2);
  g.add_edge(0, 1, 5.0);
  Grouping grouping;
  grouping.switch_to_group = {0, 1};
  grouping.group_count = 2;
  EXPECT_DOUBLE_EQ(inter_group_intensity(g, grouping), 1.0);
}

TEST(IniGroupTest, RespectsSizeLimit) {
  Rng rng(1);
  graph::WeightedGraph g = clustered(6, 10, 5.0, 0.5);
  Sgi sgi(SgiOptions{.group_size_limit = 12});
  const Grouping grouping = sgi.initial_grouping(g, rng);
  for (std::size_t size : group_sizes(grouping)) {
    EXPECT_LE(size, 12u);
  }
  // Every switch assigned to a valid group.
  for (std::uint32_t x : grouping.switch_to_group) {
    EXPECT_LT(x, grouping.group_count);
  }
}

TEST(IniGroupTest, FindsClusterStructure) {
  Rng rng(2);
  graph::WeightedGraph g = clustered(4, 10, 10.0, 0.2);
  Sgi sgi(SgiOptions{.group_size_limit = 10});
  const Grouping grouping = sgi.initial_grouping(g, rng);
  // Near-perfect grouping leaves only the weak ring edges across groups.
  EXPECT_LT(inter_group_intensity(g, grouping), 0.02);
}

TEST(IniGroupTest, GroupCountMatchesEstimate) {
  Rng rng(3);
  graph::WeightedGraph g = clustered(5, 10, 3.0, 0.3);
  Sgi sgi(SgiOptions{.group_size_limit = 10});
  const Grouping grouping = sgi.initial_grouping(g, rng);
  // k = ceil(50/10) = 5 groups expected (the partitioner may add more only
  // if the size constraint forces it, which it does not here).
  EXPECT_GE(grouping.group_count, 5u);
  EXPECT_LE(grouping.group_count, 7u);
}

TEST(IniGroupTest, EmptyGraph) {
  Rng rng(4);
  graph::WeightedGraph g(0);
  Sgi sgi(SgiOptions{});
  const Grouping grouping = sgi.initial_grouping(g, rng);
  EXPECT_EQ(grouping.group_count, 0u);
  EXPECT_TRUE(grouping.switch_to_group.empty());
}

TEST(IncUpdateTest, RepairsDriftedGrouping) {
  // Start from a grouping that was good for *old* traffic, then present a
  // recent intensity graph where two switches moved their affinity across
  // groups; IncUpdate must reduce Winter.
  // Limit 9 leaves one slot of slack so the drifted vertex can change
  // groups (at limit 8 the current grouping is already optimal-feasible).
  Rng rng(5);
  graph::WeightedGraph old_g = clustered(2, 8, 5.0, 0.5);
  Sgi sgi(SgiOptions{.group_size_limit = 9});
  Grouping grouping = sgi.initial_grouping(old_g, rng);
  ASSERT_EQ(grouping.group_count, 2u);

  // Recent traffic: vertex 0 (group A) now talks mostly to group B.
  graph::WeightedGraph recent = clustered(2, 8, 5.0, 0.5);
  for (graph::VertexId v = 8; v < 16; ++v) recent.add_edge(0, v, 8.0);

  const auto result = sgi.incremental_update(grouping, recent, rng);
  EXPECT_GT(result.iterations, 0);
  EXPECT_LT(result.inter_group_after, result.inter_group_before);
  EXPECT_FALSE(result.touched_groups.empty());
  // Still feasible.
  for (std::size_t size : group_sizes(grouping)) EXPECT_LE(size, 9u);
}

TEST(IncUpdateTest, NoopWhenGroupingAlreadyOptimal) {
  Rng rng(6);
  graph::WeightedGraph g = clustered(3, 6, 10.0, 0.1);
  Sgi sgi(SgiOptions{.group_size_limit = 6});
  Grouping grouping = sgi.initial_grouping(g, rng);
  const double before = inter_group_intensity(g, grouping);
  const auto result = sgi.incremental_update(grouping, g, rng);
  EXPECT_DOUBLE_EQ(result.inter_group_after, before);
  EXPECT_TRUE(result.touched_groups.empty());
}

TEST(IncUpdateTest, SingleGroupIsNoop) {
  Rng rng(7);
  graph::WeightedGraph g = clustered(1, 6, 1.0, 0.0);
  Sgi sgi(SgiOptions{.group_size_limit = 10});
  Grouping grouping;
  grouping.switch_to_group.assign(6, 0);
  grouping.group_count = 1;
  const auto result = sgi.incremental_update(grouping, g, rng);
  EXPECT_EQ(result.iterations, 0);
}

TEST(IncUpdateTest, ParallelModeTouchesMultiplePairs) {
  // Four clusters with drifted traffic between two disjoint pairs; the
  // parallel variant (appendix B) should fix both in one invocation.
  Rng rng(8);
  graph::WeightedGraph old_g = clustered(4, 6, 5.0, 0.2);
  Sgi seq(SgiOptions{.group_size_limit = 6, .max_iterations = 1,
                     .parallel = false});
  Sgi par(SgiOptions{.group_size_limit = 6, .max_iterations = 1,
                     .parallel = true, .parallel_batch = 2});

  graph::WeightedGraph recent = clustered(4, 6, 5.0, 0.2);
  // Drift: swap affinity of one vertex between groups 0<->1 and 2<->3.
  for (graph::VertexId v = 6; v < 12; ++v) recent.add_edge(0, v, 9.0);
  for (graph::VertexId v = 18; v < 24; ++v) recent.add_edge(12, v, 9.0);

  Grouping g1 = seq.initial_grouping(old_g, rng);
  Grouping g2 = g1;
  Rng r1(9), r2(9);
  const auto res_seq = seq.incremental_update(g1, recent, r1);
  const auto res_par = par.incremental_update(g2, recent, r2);
  // With a single iteration, parallel handles >= as many pairs.
  EXPECT_GE(res_par.touched_groups.size(), res_seq.touched_groups.size());
  EXPECT_LE(res_par.inter_group_after, res_seq.inter_group_after + 1e-9);
}

TEST(RankedGroupPairsTest, TiesKeepKeyOrder) {
  // Eight singleton groups, every pair joined by a unit edge: 28 equal
  // weights, more than the 16 below which std::sort happens to be stable.
  graph::WeightedGraph g(8);
  for (graph::VertexId u = 0; u < 8; ++u) {
    for (graph::VertexId v = u + 1; v < 8; ++v) g.add_edge(u, v, 1.0);
  }
  Grouping grouping;
  grouping.switch_to_group = {0, 1, 2, 3, 4, 5, 6, 7};
  grouping.group_count = 8;
  const RankedGroupPairs ranked = ranked_group_pairs(g, grouping);
  ASSERT_EQ(ranked.pairs.size(), 28u);
  std::size_t i = 0;
  for (std::uint32_t a = 0; a < 8; ++a) {
    for (std::uint32_t b = a + 1; b < 8; ++b, ++i) {
      EXPECT_EQ(ranked.pairs[i].a, a) << i;
      EXPECT_EQ(ranked.pairs[i].b, b) << i;
    }
  }
  EXPECT_EQ(ranked.total, 28.0);
}

TEST(RankedGroupPairsTest, TotalIsSummedInKeyOrder) {
  // Pairs (0,1), (0,2), (1,2) weigh 1, 1 and 1e16. In key order the sum is
  // 1e16 + 2 exactly; in ranked order each 1 is lost to rounding against
  // 1e16. DGM's merge floor is a fraction of this total.
  graph::WeightedGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 2, 1e16);
  Grouping grouping;
  grouping.switch_to_group = {0, 1, 2};
  grouping.group_count = 3;
  const RankedGroupPairs ranked = ranked_group_pairs(g, grouping);
  ASSERT_EQ(ranked.pairs.size(), 3u);
  EXPECT_EQ(ranked.pairs[0].a, 1u);
  EXPECT_EQ(ranked.pairs[0].b, 2u);
  EXPECT_EQ(ranked.pairs[1].b, 1u);
  EXPECT_EQ(ranked.pairs[2].b, 2u);
  EXPECT_EQ(ranked.total, 1e16 + 2.0);
}

TEST(RankedGroupPairsTest, MatchesMapReference) {
  // The ranking as a std::map keyed by (a, b) computed it: each pair's
  // weight added in edge-scan order, then ranked by a stable sort. On
  // real-valued weights, a pair summed in another order differs in its
  // last bits.
  Rng rng(9);
  graph::WeightedGraph g(120);
  for (graph::VertexId u = 0; u < 120; ++u) {
    for (graph::VertexId v = u + 1; v < 120; ++v) {
      if (rng.next_bool(0.15)) g.add_edge(u, v, rng.next_double() * 3.0);
    }
  }
  for (const std::uint32_t groups : {2u, 7u, 30u}) {
    SCOPED_TRACE(groups);
    Grouping grouping;
    grouping.group_count = groups;
    for (graph::VertexId v = 0; v < 120; ++v) {
      grouping.switch_to_group.push_back(
          static_cast<std::uint32_t>(rng.next_below(groups)));
    }
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> weights;
    for (graph::VertexId u = 0; u < 120; ++u) {
      for (const graph::Neighbor& n : g.neighbors(u)) {
        if (n.vertex <= u) continue;
        const std::uint32_t ga = grouping.switch_to_group[u];
        const std::uint32_t gb = grouping.switch_to_group[n.vertex];
        if (ga != gb) weights[{std::min(ga, gb), std::max(ga, gb)}] += n.weight;
      }
    }
    RankedGroupPairs want;
    for (const auto& [pair, weight] : weights) {
      want.pairs.push_back({pair.first, pair.second, weight});
      want.total += weight;
    }
    std::stable_sort(want.pairs.begin(), want.pairs.end(),
                     [](const GroupPair& x, const GroupPair& y) {
                       return x.weight > y.weight;
                     });

    const RankedGroupPairs got = ranked_group_pairs(g, grouping);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.total),
              std::bit_cast<std::uint64_t>(want.total));
    ASSERT_EQ(got.pairs.size(), want.pairs.size());
    for (std::size_t i = 0; i < want.pairs.size(); ++i) {
      EXPECT_EQ(got.pairs[i].a, want.pairs[i].a) << i;
      EXPECT_EQ(got.pairs[i].b, want.pairs[i].b) << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.pairs[i].weight),
                std::bit_cast<std::uint64_t>(want.pairs[i].weight))
          << i;
    }
  }
}

TEST(IncUpdateTest, DeterministicForSeed) {
  graph::WeightedGraph g = clustered(3, 8, 4.0, 0.5);
  Sgi sgi(SgiOptions{.group_size_limit = 8});
  Rng ra(11), rb(11);
  Grouping a = sgi.initial_grouping(g, ra);
  Grouping b = sgi.initial_grouping(g, rb);
  EXPECT_EQ(a.switch_to_group, b.switch_to_group);
}

}  // namespace
}  // namespace lazyctrl::core

// --- golden grouping fingerprints ---
//
// Which groups set-up and maintenance produce depends on more than the
// graph's edge weights: refinement gives a gain tie to the first part in
// a hash map's iteration order, and floating-point sums follow adjacency
// order. These constants pin IniGroup on two seeded history graphs and
// on a tie-heavy torus, one DGM plan, two IncUpdate runs (one pair per
// iteration, and batches of three) and one bisection (libstdc++'s hash
// tables), so a change to the graph builders, the partitioner or the
// regroup operator that moves a single switch fails here instead of
// quietly moving every grouping metric downstream.
namespace lazyctrl::core {
namespace {

/// FNV-1a over a sequence of 64-bit words.
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(double x) { mix(std::bit_cast<std::uint64_t>(x)); }
  void mix(const std::vector<std::uint32_t>& assignment) {
    mix(static_cast<std::uint64_t>(assignment.size()));
    for (std::uint32_t a : assignment) mix(static_cast<std::uint64_t>(a));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

topo::Topology fabric(std::size_t switches, std::size_t tenants,
                      std::size_t min_vms, std::size_t max_vms,
                      std::size_t vms_per_switch, std::uint64_t seed) {
  Rng rng(seed);
  topo::MultiTenantOptions opt;
  opt.switch_count = switches;
  opt.tenant_count = tenants;
  opt.min_vms_per_tenant = min_vms;
  opt.max_vms_per_tenant = max_vms;
  opt.vms_per_switch = vms_per_switch;
  return topo::build_multi_tenant(opt, rng);
}

/// The first hour of a flat real_like trace, as set-up reads it.
graph::WeightedGraph real_like_history(const topo::Topology& topology,
                                       std::size_t flows,
                                       std::uint64_t seed) {
  Rng rng(seed);
  workload::RealLikeOptions opt;
  opt.total_flows = flows;
  opt.horizon = 2 * kHour;
  opt.profile = workload::DiurnalProfile::flat();
  const workload::Trace trace =
      workload::generate_real_like(topology, opt, rng);
  return workload::build_intensity_graph(trace, topology, 0, kHour);
}

std::uint64_t grouping_fingerprint(const graph::WeightedGraph& g,
                                   const Grouping& grouping) {
  Fingerprint f;
  f.mix(grouping.switch_to_group);
  f.mix(static_cast<std::uint64_t>(grouping.group_count));
  f.mix(graph::cut_weight(
      g, graph::Partition{grouping.switch_to_group, grouping.group_count}));
  return f.value();
}

/// IniGroup on a side x side torus of unit weights, in groups of `side`:
/// nearly every refinement gain ties, so the grouping follows the order
/// in which refinement meets the parts of a vertex's neighbourhood.
std::uint64_t torus_inigroup_fingerprint(std::size_t side) {
  graph::WeightedGraph g(side * side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      const auto v = static_cast<graph::VertexId>(r * side + c);
      g.add_edge(v, static_cast<graph::VertexId>(r * side + (c + 1) % side),
                 1.0);
      g.add_edge(v, static_cast<graph::VertexId>((r + 1) % side * side + c),
                 1.0);
    }
  }
  Rng rng(1);
  const Grouping grouping =
      Sgi(SgiOptions{.group_size_limit = side}).initial_grouping(g, rng);
  return grouping_fingerprint(g, grouping);
}

std::uint64_t inigroup_fingerprint(std::size_t switches, std::size_t tenants,
                                   std::size_t flows, std::size_t limit) {
  const topo::Topology topology = fabric(switches, tenants, 20, 100, 24, 1);
  const graph::WeightedGraph history = real_like_history(topology, flows, 1);
  EXPECT_EQ(history.vertex_count(), switches);
  Rng rng(1);
  const Grouping grouping =
      Sgi(SgiOptions{.group_size_limit = limit}).initial_grouping(history,
                                                                 rng);
  return grouping_fingerprint(history, grouping);
}

/// A DGM round on drifting communities: IniGroup on the first hour, then
/// a plan against the traffic monitor's estimate of the third.
std::uint64_t regrouper_plan_fingerprint() {
  const topo::Topology topology = fabric(192, 120, 10, 30, 12, 1);
  Rng rng(1);
  workload::DriftingLocalityOptions opt;
  opt.total_flows = 200'000;
  opt.horizon = 8 * kHour;
  opt.community_count = 12;
  opt.intra_community_share = 0.7;
  const workload::Trace trace =
      workload::generate_drifting_locality(topology, opt, rng);

  const graph::WeightedGraph history =
      workload::build_intensity_graph(trace, topology, 0, kHour);
  const Grouping current =
      Sgi(SgiOptions{.group_size_limit = 20}).initial_grouping(history, rng);

  dgm::TrafficMonitor monitor(topology.switch_count(),
                              dgm::TrafficMonitorOptions{.window = kHour});
  for (const workload::Flow& flow : trace.flows) {
    if (flow.start < 2 * kHour || flow.start >= 3 * kHour) continue;
    monitor.record_flow(topology.host_info(flow.src).attached_switch,
                        topology.host_info(flow.dst).attached_switch);
  }
  monitor.roll_window();
  const graph::WeightedGraph recent = monitor.intensity_graph();
  const dgm::MigrationPlan plan =
      dgm::IncrementalRegrouper(dgm::RegrouperOptions{.group_size_limit = 20})
          .plan(current, recent, rng);
  EXPECT_FALSE(plan.empty());

  Fingerprint f;
  f.mix(grouping_fingerprint(history, current));
  f.mix(grouping_fingerprint(recent, plan.after));
  f.mix(plan.inter_after);
  for (const dgm::SwitchMove& m : plan.moves) {
    f.mix(static_cast<std::uint64_t>(m.sw.value()));
    f.mix(static_cast<std::uint64_t>(m.to.value()));
    f.mix(m.gain);
  }
  f.mix(static_cast<std::uint64_t>(plan.merges.size()));
  for (const dgm::GroupSplit& split : plan.splits) f.mix(split.cut_after);
  return f.value();
}

/// IncUpdate on a seeded 272-switch fabric: IniGroup on the first hour of
/// a real_like trace, then one invocation against the traffic monitor's
/// estimate of the second, one pair per iteration or (appendix B) batches
/// of three disjoint pairs.
std::uint64_t incupdate_fingerprint(bool parallel) {
  const topo::Topology topology = fabric(272, 110, 20, 100, 24, 3);
  Rng rng(3);
  workload::RealLikeOptions opt;
  opt.total_flows = 100'000;
  opt.horizon = 2 * kHour;
  opt.profile = workload::DiurnalProfile::flat();
  const workload::Trace trace =
      workload::generate_real_like(topology, opt, rng);
  const graph::WeightedGraph history =
      workload::build_intensity_graph(trace, topology, 0, kHour);
  const Sgi sgi(SgiOptions{.group_size_limit = 34,
                           .max_iterations = 4,
                           .parallel = parallel,
                           .parallel_batch = 3});
  Grouping grouping = sgi.initial_grouping(history, rng);

  dgm::TrafficMonitor monitor(topology.switch_count(),
                              dgm::TrafficMonitorOptions{.window = kHour});
  for (const workload::Flow& flow : trace.flows) {
    if (flow.start < kHour) continue;
    monitor.record_flow(topology.host_info(flow.src).attached_switch,
                        topology.host_info(flow.dst).attached_switch);
  }
  monitor.roll_window();
  const Sgi::UpdateResult result =
      sgi.incremental_update(grouping, monitor.intensity_graph(), rng);
  EXPECT_FALSE(result.touched_groups.empty());

  Fingerprint f;
  f.mix(grouping.switch_to_group);
  for (const GroupId g : result.touched_groups) {
    f.mix(static_cast<std::uint64_t>(g.value()));
  }
  f.mix(result.inter_group_after);
  return f.value();
}

std::uint64_t bisection_fingerprint() {
  const topo::Topology topology = fabric(272, 110, 20, 100, 24, 2);
  const graph::WeightedGraph history =
      real_like_history(topology, 100'000, 2);
  Rng rng(2);
  const graph::BisectionResult split =
      graph::min_bisection(history, 150.0, rng);
  Fingerprint f;
  f.mix(split.side);
  f.mix(split.cut_weight);
  return f.value();
}

TEST(GroupingFingerprintTest, SetUpAndMaintenanceGroupingsAreUnchanged) {
  const struct {
    const char* name;
    std::uint64_t got;
    std::uint64_t want;
  } cases[] = {
      {"inigroup_272", inigroup_fingerprint(272, 110, 100'000, 34),
       0xd6b37fd2f1160d20ULL},
      {"inigroup_2713", inigroup_fingerprint(2713, 1100, 150'000, 46),
       0xb437b5396518a2a5ULL},
      {"regrouper_plan", regrouper_plan_fingerprint(), 0x601415d6ef96d994ULL},
      {"min_bisection", bisection_fingerprint(), 0x72294e8a190a8f38ULL},
      {"inigroup_torus", torus_inigroup_fingerprint(24), 0x27d64ced7118e4aaULL},
      {"incupdate_sequential", incupdate_fingerprint(false),
       0x6981974a2b9ab6e1ULL},
      {"incupdate_parallel", incupdate_fingerprint(true),
       0xbb5f2de03b460a25ULL},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(c.got, c.want) << c.name << " fingerprint is 0x" << std::hex
                             << c.got;
  }
}

}  // namespace
}  // namespace lazyctrl::core
