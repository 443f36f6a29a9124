// Cross-cutting property suites: invariants that must hold across random
// seeds, control modes and parameter sweeps.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "core/network.h"
#include "graph/multilevel_partitioner.h"
#include "sim/simulator.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl {
namespace {

// ---------------------------------------------------------------------
// Property 1: flow accounting. Under any seed and either control mode,
// every flow lands in exactly one handling class, controller packet-ins
// equal the controller-handled classes, and no packets are lost.
// ---------------------------------------------------------------------

class FlowAccountingProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, core::ControlMode>> {};

TEST_P(FlowAccountingProperty, ClassesPartitionFlows) {
  const auto [seed, mode] = GetParam();
  Rng rng(seed);
  topo::MultiTenantOptions topt;
  topt.switch_count = 14;
  topt.tenant_count = 7;
  auto topo = topo::build_multi_tenant(topt, rng);
  workload::RealLikeOptions wopt;
  wopt.total_flows = 4000;
  wopt.horizon = kHour;
  wopt.profile = workload::DiurnalProfile::flat();
  auto trace = workload::generate_real_like(topo, wopt, rng);

  core::Config cfg;
  cfg.mode = mode;
  cfg.grouping.group_size_limit = 5;
  core::Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  net.replay(trace);

  const core::RunMetrics& m = net.metrics();
  EXPECT_EQ(m.flows_seen, trace.flow_count());
  if (mode == core::ControlMode::kOpenFlow) {
    EXPECT_EQ(m.flows_seen,
              m.flows_flow_table_hit + m.controller_packet_ins);
    EXPECT_EQ(m.flows_intra_group, 0u);
    EXPECT_EQ(m.flows_local_delivery, 0u);
  } else {
    EXPECT_EQ(m.flows_seen, m.flows_local_delivery + m.flows_intra_group +
                                m.flows_inter_group +
                                m.flows_flow_table_hit +
                                m.transition_punts);
    EXPECT_EQ(m.controller_packet_ins,
              m.flows_inter_group + m.transition_punts);
  }
  // Every packet of every flow accounted in the latency series.
  std::uint64_t total_packets = 0;
  for (const auto& f : trace.flows) total_packets += f.packets;
  EXPECT_EQ(m.packets_accounted, total_packets);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, FlowAccountingProperty,
    ::testing::Combine(::testing::Values(1, 7, 42, 1001),
                       ::testing::Values(core::ControlMode::kOpenFlow,
                                         core::ControlMode::kLazyCtrl)));

// ---------------------------------------------------------------------
// Property 2: grouping invariants. After bootstrap and after dynamic
// updates, the grouping is a disjoint cover respecting the size limit and
// every switch's G-FIB tracks exactly its group peers.
// ---------------------------------------------------------------------

class GroupingInvariantProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(GroupingInvariantProperty, CoverAndLimitAndGfibAgree) {
  const auto [seed, limit] = GetParam();
  Rng rng(seed);
  topo::MultiTenantOptions topt;
  topt.switch_count = 24;
  topt.tenant_count = 12;
  auto topo = topo::build_multi_tenant(topt, rng);
  workload::RealLikeOptions wopt;
  wopt.total_flows = 6000;
  wopt.horizon = kHour;
  auto trace = workload::generate_real_like(topo, wopt, rng);

  core::Config cfg;
  cfg.mode = core::ControlMode::kLazyCtrl;
  cfg.grouping.group_size_limit = limit;
  cfg.dgm.mode = core::DgmMode::kControllerLoad;
  core::Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  net.replay(trace);

  const core::Grouping& g = net.grouping();
  ASSERT_EQ(g.switch_to_group.size(), topo.switch_count());
  std::vector<std::size_t> sizes(g.group_count, 0);
  for (std::uint32_t x : g.switch_to_group) {
    ASSERT_LT(x, g.group_count);
    ++sizes[x];
  }
  for (std::size_t s : sizes) {
    EXPECT_GT(s, 0u);        // compacted: no empty groups
    EXPECT_LE(s, limit);     // hard size constraint
  }
  const auto members = g.members();
  for (const auto& group : members) {
    for (SwitchId m : group) {
      EXPECT_EQ(net.edge_switch(m).gfib().peer_count(), group.size() - 1);
      // Designated switch is a member of the group.
      const SwitchId d = net.edge_switch(m).designated();
      EXPECT_NE(std::find(group.begin(), group.end(), d), group.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLimits, GroupingInvariantProperty,
    ::testing::Combine(::testing::Values(3, 17, 99),
                       ::testing::Values(3, 6, 12, 24)));

// ---------------------------------------------------------------------
// Property 3: simulator determinism fuzz — a random workload of nested
// schedules/cancels executes identically twice.
// ---------------------------------------------------------------------

class SimDeterminismProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static std::vector<std::uint64_t> run_once(std::uint64_t seed) {
    sim::Simulator s;
    Rng rng(seed);
    std::vector<std::uint64_t> log;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 200; ++i) {
      const SimTime t = static_cast<SimTime>(rng.next_below(1000));
      const std::uint64_t tag = rng.next_u64();
      ids.push_back(s.schedule_at(t, [&log, tag] { log.push_back(tag); }));
    }
    // Cancel a random subset.
    for (int i = 0; i < 50; ++i) {
      s.cancel(ids[rng.next_below(ids.size())]);
    }
    // A periodic event interleaves and reschedules one-shots.
    Rng prng(seed ^ 0xabcdef);
    const sim::EventId p = s.schedule_periodic(37, [&] {
      const std::uint64_t tag = prng.next_u64();
      s.schedule_after(static_cast<SimDuration>(prng.next_below(100)),
                       [&log, tag] { log.push_back(tag); });
    });
    s.run_until(1500);
    s.cancel(p);
    s.run();
    return log;
  }
};

TEST_P(SimDeterminismProperty, IdenticalLogs) {
  EXPECT_EQ(run_once(GetParam()), run_once(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminismProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------
// Property 4: weighted-vertex partitioning. With heterogeneous vertex
// weights the size constraint still binds on total weight, not count.
// ---------------------------------------------------------------------

class WeightedPartitionProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WeightedPartitionProperty, WeightLimitRespected) {
  Rng rng(GetParam());
  graph::WeightedGraph g(60);
  for (graph::VertexId v = 0; v < 60; ++v) {
    g.set_vertex_weight(v, 1.0 + static_cast<double>(rng.next_below(4)));
  }
  for (int e = 0; e < 300; ++e) {
    const auto u = static_cast<graph::VertexId>(rng.next_below(60));
    const auto v = static_cast<graph::VertexId>(rng.next_below(60));
    if (u != v) g.add_edge(u, v, 1.0 + rng.next_double() * 5);
  }
  const double limit = 20.0;
  graph::MultilevelPartitioner mp;
  graph::Partition p =
      mp.partition(g, 8, graph::PartitionConstraints{limit}, rng);
  const auto weights = graph::part_weights(g, p);
  for (double w : weights) EXPECT_LE(w, limit + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeightedPartitionProperty,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------
// Property 5: LazyCtrl never performs worse than OpenFlow on controller
// load for localized workloads, across seeds.
// ---------------------------------------------------------------------

class ReductionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReductionProperty, LazyCtrlNeverWorse) {
  Rng rng(GetParam());
  topo::MultiTenantOptions topt;
  topt.switch_count = 18;
  topt.tenant_count = 9;
  auto topo = topo::build_multi_tenant(topt, rng);
  workload::RealLikeOptions wopt;
  wopt.total_flows = 8000;
  wopt.horizon = kHour;
  auto trace = workload::generate_real_like(topo, wopt, rng);
  const auto history = workload::build_intensity_graph(trace, topo);

  core::Config lc;
  lc.mode = core::ControlMode::kLazyCtrl;
  lc.grouping.group_size_limit = 6;
  core::Network lazy(topo, lc);
  lazy.bootstrap(history);
  lazy.replay(trace);

  core::Config oc;
  oc.mode = core::ControlMode::kOpenFlow;
  core::Network base(topo, oc);
  base.bootstrap();
  base.replay(trace);

  EXPECT_LT(lazy.metrics().controller_packet_ins,
            base.metrics().controller_packet_ins);
  EXPECT_LE(lazy.metrics().first_packet_latency_ms.mean(),
            base.metrics().first_packet_latency_ms.mean());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace lazyctrl
