// Tests of the sharded parallel replay runtime (src/runtime).
//
// The load-bearing property is the runtime's contract: replaying any
// workload through N parallel shards produces metrics BIT-IDENTICAL to
// the single-threaded Network::replay — including under DGM maintenance,
// grouping transitions, mid-replay VM migration, bounded flow tables and
// install bursts that make worker pre-decisions stale.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/network.h"
#include "runtime/shard_plan.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl::runtime {
namespace {

using core::Config;
using core::ControlMode;
using core::Network;
using core::RunMetrics;

topo::Topology test_topology(std::uint64_t seed = 31,
                             std::size_t switches = 24,
                             std::size_t tenants = 10) {
  Rng rng(seed);
  topo::MultiTenantOptions opt;
  opt.switch_count = switches;
  opt.tenant_count = tenants;
  opt.min_vms_per_tenant = 10;
  opt.max_vms_per_tenant = 30;
  return topo::build_multi_tenant(opt, rng);
}

/// Drifting-locality trace: the DGM stress workload, with plenty of flows
/// whose src/dst edge switches land in different groups (and therefore in
/// different shards once every group gets its own shard).
workload::Trace drifting_trace(const topo::Topology& topo, std::size_t flows,
                               std::uint64_t seed = 32) {
  Rng rng(seed);
  workload::DriftingLocalityOptions opt;
  opt.total_flows = flows;
  opt.community_count = 4;
  opt.phases = 4;
  opt.horizon = 2 * kHour;
  return workload::generate_drifting_locality(topo, opt, rng);
}

Config lazy_config(std::size_t limit = 8) {
  Config c;
  c.mode = ControlMode::kLazyCtrl;
  c.grouping.group_size_limit = limit;
  return c;
}

/// Full bit-level comparison of two metric records: every scalar counter,
/// every time-series bucket, every RunningStats moment.
void expect_bit_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.flows_seen, b.flows_seen);
  EXPECT_EQ(a.packets_accounted, b.packets_accounted);
  EXPECT_EQ(a.controller_packet_ins, b.controller_packet_ins);
  EXPECT_EQ(a.flows_local_delivery, b.flows_local_delivery);
  EXPECT_EQ(a.flows_intra_group, b.flows_intra_group);
  EXPECT_EQ(a.flows_inter_group, b.flows_inter_group);
  EXPECT_EQ(a.flows_flow_table_hit, b.flows_flow_table_hit);
  EXPECT_EQ(a.bf_false_positive_copies, b.bf_false_positive_copies);
  EXPECT_EQ(a.bf_misforward_drops, b.bf_misforward_drops);
  EXPECT_EQ(a.peer_link_messages, b.peer_link_messages);
  EXPECT_EQ(a.state_link_messages, b.state_link_messages);
  EXPECT_EQ(a.control_link_messages, b.control_link_messages);
  EXPECT_EQ(a.grouping_update_count, b.grouping_update_count);
  EXPECT_EQ(a.preload_rules_installed, b.preload_rules_installed);
  EXPECT_EQ(a.transition_punts, b.transition_punts);
  EXPECT_EQ(a.dgm_rounds, b.dgm_rounds);
  EXPECT_EQ(a.dgm_plans_applied, b.dgm_plans_applied);
  EXPECT_EQ(a.dgm_switch_moves, b.dgm_switch_moves);
  EXPECT_EQ(a.dgm_group_merges, b.dgm_group_merges);
  EXPECT_EQ(a.dgm_group_splits, b.dgm_group_splits);
  EXPECT_EQ(a.dgm_flow_mods, b.dgm_flow_mods);

  const auto expect_series_eq = [](const TimeBucketSeries& x,
                                   const TimeBucketSeries& y) {
    ASSERT_EQ(x.bucket_count(), y.bucket_count());
    for (std::size_t i = 0; i < x.bucket_count(); ++i) {
      EXPECT_EQ(x.bucket_events(i), y.bucket_events(i));
      EXPECT_EQ(x.bucket_sum(i), y.bucket_sum(i));  // bit-exact doubles
    }
  };
  expect_series_eq(a.controller_requests, b.controller_requests);
  expect_series_eq(a.packet_latency, b.packet_latency);
  expect_series_eq(a.grouping_updates, b.grouping_updates);
  expect_series_eq(a.flow_arrivals, b.flow_arrivals);
  expect_series_eq(a.inter_group_arrivals, b.inter_group_arrivals);

  const auto expect_stats_eq = [](const RunningStats& x,
                                  const RunningStats& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.mean(), y.mean());
    EXPECT_EQ(x.min(), y.min());
    EXPECT_EQ(x.max(), y.max());
    EXPECT_EQ(x.sum(), y.sum());
    EXPECT_EQ(x.variance(), y.variance());
  };
  expect_stats_eq(a.first_packet_latency_ms, b.first_packet_latency_ms);
  expect_stats_eq(a.controller_queue_delay_ms, b.controller_queue_delay_ms);

  // Catch-all through the canonical comparator: covers any field the
  // granular expectations above don't enumerate.
  EXPECT_TRUE(a.identical_to(b)) << a.diff_report(b);
}

RunMetrics run_sequential(const topo::Topology& topo,
                          const workload::Trace& trace, Config cfg,
                          const graph::WeightedGraph* history = nullptr) {
  cfg.runtime.num_shards = 1;
  Network net(topo, cfg);
  if (history != nullptr) {
    net.bootstrap(*history);
  } else {
    net.bootstrap();
  }
  net.replay(trace);
  return net.metrics();
}

using RuntimeStats = Network::RuntimeObsStats;

RunMetrics run_sharded(const topo::Topology& topo,
                       const workload::Trace& trace, Config cfg,
                       std::size_t shards,
                       const graph::WeightedGraph* history = nullptr,
                       RuntimeStats* stats_out = nullptr) {
  cfg.runtime.num_shards = shards;
  Network net(topo, cfg);
  if (history != nullptr) {
    net.bootstrap(*history);
  } else {
    net.bootstrap();
  }
  net.replay(trace);
  if (stats_out != nullptr) *stats_out = net.runtime_obs();
  return net.metrics();
}

TEST(ShardPlanTest, GroupsNeverStraddleShards) {
  core::Grouping g;
  g.switch_to_group = {0, 1, 2, 0, 1, 2, 0, 1, 2, 3, 3, 3};
  g.group_count = 4;
  const ShardPlan plan(g.switch_to_group.size(), g, 3);
  EXPECT_EQ(plan.shard_count(), 3u);
  // Every switch of one group must live on one shard.
  std::vector<std::uint32_t> shard_of_group(g.group_count, 0xFFFFFFFFu);
  for (std::size_t sw = 0; sw < g.switch_to_group.size(); ++sw) {
    const std::uint32_t grp = g.switch_to_group[sw];
    const std::uint32_t shard = plan.shard_of(SwitchId{
        static_cast<std::uint32_t>(sw)});
    if (shard_of_group[grp] == 0xFFFFFFFFu) {
      shard_of_group[grp] = shard;
    } else {
      EXPECT_EQ(shard_of_group[grp], shard) << "group " << grp;
    }
  }
  // All switches accounted for across shards.
  std::size_t total = 0;
  for (std::size_t s = 0; s < plan.shard_count(); ++s) {
    total += plan.shard_size(s);
  }
  EXPECT_EQ(total, g.switch_to_group.size());
}

TEST(ShardPlanTest, ClampsToGroupCountAndBalances) {
  core::Grouping g;
  g.switch_to_group = {0, 0, 0, 1, 1, 1};
  g.group_count = 2;
  const ShardPlan plan(6, g, 8);
  EXPECT_EQ(plan.shard_count(), 2u);  // no empty worker shards
  EXPECT_EQ(plan.shard_size(0), 3u);
  EXPECT_EQ(plan.shard_size(1), 3u);
}

TEST(ShardPlanTest, UngroupedNetworkSplitsContiguously) {
  const core::Grouping empty;
  const ShardPlan plan(10, empty, 4);
  EXPECT_EQ(plan.shard_count(), 4u);
  // Contiguous ranges: shard index is monotone in switch id.
  std::uint32_t last = 0;
  for (std::uint32_t sw = 0; sw < 10; ++sw) {
    const std::uint32_t s = plan.shard_of(SwitchId{sw});
    EXPECT_GE(s, last);
    last = s;
  }
  EXPECT_EQ(last, 3u);
}

TEST(ShardedRuntimeTest, DeterministicIdenticalToSequentialLazyCtrl) {
  const auto topo = test_topology();
  const auto trace = drifting_trace(topo, 12000);
  const auto history =
      workload::build_intensity_graph(trace, topo, 0, kHour);
  Config cfg = lazy_config();

  const RunMetrics sequential = run_sequential(topo, trace, cfg, &history);
  // Cross-shard coverage: the drifting-locality workload must carry flows
  // whose src/dst straddle a group (= shard) boundary, or the test proves
  // nothing about cross-shard handling.
  ASSERT_GT(sequential.flows_inter_group + sequential.flows_intra_group, 0u);
  ASSERT_GT(sequential.flows_inter_group, 0u);

  for (const std::size_t shards : {2u, 4u, 16u}) {
    RuntimeStats stats;
    const RunMetrics sharded =
        run_sharded(topo, trace, cfg, shards, &history, &stats);
    SCOPED_TRACE(shards);
    expect_bit_identical(sequential, sharded);
    EXPECT_GT(stats.spans, 0u);
    EXPECT_EQ(stats.flows, trace.flow_count());
  }
}

TEST(ShardedRuntimeTest, DeterministicIdenticalUnderDgmAndMigration) {
  // The stress case: DGM maintenance rounds, stats windows, grouping
  // transitions and a mid-replay VM migration all interleave with window
  // spans — and regrouping forces shard-plan rebuilds mid-replay.
  const auto topo = test_topology(41);
  const auto trace = drifting_trace(topo, 12000, 42);
  const auto history =
      workload::build_intensity_graph(trace, topo, 0, kHour);
  Config cfg = lazy_config(6);
  cfg.dgm.mode = core::DgmMode::kPeriodic;
  cfg.dgm.maintenance_period = 10 * kMinute;
  cfg.dgm.min_flow_evidence = 50.0;

  const auto run = [&](std::size_t shards,
                       RuntimeStats* stats) -> RunMetrics {
    Config c = cfg;
    c.runtime.num_shards = shards;
    Network net(topo, c);
    net.bootstrap(history);
    net.schedule_migration(HostId{3}, SwitchId{7}, kHour);
    net.replay(trace);
    *stats = net.runtime_obs();
    return net.metrics();
  };

  RuntimeStats stats;
  const RunMetrics sequential = run(1, &stats);
  ASSERT_GT(sequential.dgm_rounds, 0u);  // DGM must actually be running

  const RunMetrics sharded = run(4, &stats);
  expect_bit_identical(sequential, sharded);
  EXPECT_GT(stats.spans, 0u);
}

TEST(ShardedRuntimeTest, DeterministicIdenticalToSequentialOpenFlow) {
  const auto topo = test_topology(51);
  const auto trace = drifting_trace(topo, 8000, 52);
  Config cfg;
  cfg.mode = ControlMode::kOpenFlow;

  const RunMetrics sequential = run_sequential(topo, trace, cfg);
  const RunMetrics sharded = run_sharded(topo, trace, cfg, 4);
  expect_bit_identical(sequential, sharded);
}

TEST(ShardedRuntimeTest, RuntimeCountersCountOnlyShardedReplays) {
  // runtime_obs() describes the sharded runtime's work: untouched by a
  // one-shard replay, one count per span and per flow otherwise.
  const auto topo = test_topology(61);
  const auto trace = drifting_trace(topo, 6000, 62);
  const auto history =
      workload::build_intensity_graph(trace, topo, 0, kHour);

  RuntimeStats stats;
  const RunMetrics sequential =
      run_sharded(topo, trace, lazy_config(), 1, &history, &stats);
  EXPECT_EQ(stats.spans, 0u);
  EXPECT_EQ(stats.flows, 0u);
  EXPECT_EQ(stats.redecided_flows, 0u);
  EXPECT_EQ(stats.repartitions, 0u);

  const RunMetrics sharded =
      run_sharded(topo, trace, lazy_config(), 4, &history, &stats);
  expect_bit_identical(sequential, sharded);
  EXPECT_GT(stats.spans, 0u);
  EXPECT_EQ(stats.flows, trace.flow_count());
}

/// An OpenFlow install burst at one switch inside ONE span: a source host
/// on `sw` opens flows to `dests` distinct remote hosts, 1 us apart (the
/// whole burst sits between two control events and under the span cap).
/// The first pair repeats immediately — its worker pre-decision (a miss) is
/// stale because the install just before it matches the packet — and
/// after the burst every pair repeats (flow-table hits sequentially, all
/// pre-decided as misses).
workload::Trace install_burst_trace(const topo::Topology& topo, SwitchId sw,
                                    std::size_t dests) {
  const HostId src = topo.hosts_on_switch(sw).front();
  std::vector<HostId> remote;
  for (std::uint32_t h = 0; h < topo.host_count() && remote.size() < dests;
       ++h) {
    if (topo.host_info(HostId{h}).attached_switch != sw) {
      remote.push_back(HostId{h});
    }
  }
  std::vector<HostId> order = {remote[0], remote[0]};
  order.insert(order.end(), remote.begin() + 1, remote.end());
  order.insert(order.end(), remote.begin(), remote.end());

  workload::Trace trace;
  trace.horizon = 2 * kMinute;
  for (std::size_t i = 0; i < order.size(); ++i) {
    workload::Flow f;
    f.src = src;
    f.dst = order[i];
    f.start = kSecond + static_cast<SimTime>(i) * kMicrosecond;
    trace.flows.push_back(f);
  }
  return trace;
}

TEST(ShardedRuntimeTest, SpanInstallStalenessIsRepairedExactly) {
  // The merge's re-decide is the one staleness repair of the datapath;
  // this drives both branches of its stale check on an install burst.
  const auto topo = test_topology(71, 24, 20);
  const SwitchId sw = topo.host_info(HostId{0}).attached_switch;
  const auto trace = install_burst_trace(topo, sw, 100);
  ASSERT_EQ(trace.flow_count(), 201u);
  Config cfg;
  cfg.mode = ControlMode::kOpenFlow;

  {
    // Unbounded table. Flow 1 repeats flow 0's pair: the match scan
    // finds the install and re-decides it into a hit. Pairs 1..64 scan
    // 1..64 installs without a match; from pair 65 on the switch holds
    // more than the scan cap (64) of span installs, so every later flow
    // there is stale outright: 35 first-pass flows + 100 repeats.
    const RunMetrics sequential = run_sequential(topo, trace, cfg);
    ASSERT_EQ(sequential.flows_flow_table_hit, 101u);
    RuntimeStats stats;
    const RunMetrics sharded =
        run_sharded(topo, trace, cfg, 2, nullptr, &stats);
    expect_bit_identical(sequential, sharded);
    EXPECT_EQ(stats.spans, 1u);
    EXPECT_EQ(stats.redecided_flows, 1u + 35u + 100u);
  }
  {
    // Bounded table: evictions depend on the table's exact size at every
    // install, so no flow at the switch is pre-decided — the merge
    // decides all of them.
    cfg.rules.flow_table_capacity = 16;
    const RunMetrics sequential = run_sequential(topo, trace, cfg);
    RuntimeStats stats;
    const RunMetrics sharded =
        run_sharded(topo, trace, cfg, 2, nullptr, &stats);
    expect_bit_identical(sequential, sharded);
    EXPECT_EQ(stats.redecided_flows, trace.flow_count());
  }
}

TEST(ShardedRuntimeTest, BoundedFlowTableIdenticalToSequentialLazyCtrl) {
  const auto topo = test_topology();
  const auto trace = drifting_trace(topo, 12000);
  const auto history =
      workload::build_intensity_graph(trace, topo, 0, kHour);
  // A bounded table under fence-wide spans: a pre-decide lookup would sweep
  // rules expiring later in the span before the merge's earlier installs
  // count them toward the capacity, changing which rule gets evicted.
  // This configuration diverged from sequential replay until bounded
  // tables stopped being pre-decided.
  Config cfg = lazy_config();
  cfg.rules.flow_table_capacity = 8;

  const RunMetrics sequential = run_sequential(topo, trace, cfg, &history);
  RuntimeStats stats;
  const RunMetrics sharded =
      run_sharded(topo, trace, cfg, 2, &history, &stats);
  expect_bit_identical(sequential, sharded);
  EXPECT_GT(stats.redecided_flows, 0u);
}

/// `count` flows between seeded random host pairs, `gap` apart from
/// t = 500 ms.
workload::Trace spaced_trace(const topo::Topology& topo, std::size_t count,
                             SimDuration gap, SimDuration horizon) {
  Rng rng(81);
  workload::Trace trace;
  trace.horizon = horizon;
  for (std::size_t i = 0; i < count; ++i) {
    workload::Flow f;
    const auto hosts = static_cast<std::uint32_t>(topo.host_count());
    const auto src = static_cast<std::uint32_t>(rng.next_below(hosts));
    const auto hop = static_cast<std::uint32_t>(rng.next_below(hosts - 1));
    f.src = HostId{src};
    f.dst = HostId{(src + 1 + hop) % hosts};  // never src itself
    f.start = 500 * kMillisecond + static_cast<SimTime>(i) * gap;
    trace.flows.push_back(f);
  }
  return trace;
}

TEST(ShardedRuntimeTest, SpansEndOnlyAtControlEventFences) {
  // Flows one second apart over two minutes; the only control events are
  // the stats window and the state report, both every 30 s. Each fence
  // interval is one span, however far apart its flows are.
  const auto topo = test_topology(81);
  const auto trace = spaced_trace(topo, 120, kSecond, 2 * kMinute);
  Config cfg;
  cfg.mode = ControlMode::kOpenFlow;
  cfg.grouping.stats_window = 30 * kSecond;
  cfg.state_report_period = 30 * kSecond;

  const RunMetrics sequential = run_sequential(topo, trace, cfg);
  RuntimeStats stats;
  const RunMetrics sharded = run_sharded(topo, trace, cfg, 2, nullptr, &stats);
  expect_bit_identical(sequential, sharded);
  EXPECT_EQ(stats.spans, 4u);
  EXPECT_EQ(stats.flows, 120u);
}

TEST(ShardedRuntimeTest, SpanNarrowerThanRuleTtlKeepsRefreshedRules) {
  // One switch, 1 s rule TTL. Pair 0's rule is installed just before the
  // 30 s fence. After it, a burst of 70 new pairs pushes the switch past
  // the merge's install-scan cap, pair 0 repeats (a hit that refreshes
  // the rule to 31.1 s) and one more flow arrives at 31.5 s. In one span,
  // that flow's pre-decide would sweep the refreshed rule before the
  // merge re-decides the repeat, turning its hit into a miss. The span
  // must end one TTL after its first flow instead.
  const auto topo = test_topology(71, 24, 20);
  const SwitchId sw = topo.host_info(HostId{0}).attached_switch;
  const HostId src = topo.hosts_on_switch(sw).front();
  std::vector<HostId> remote;
  for (std::uint32_t h = 0; h < topo.host_count() && remote.size() < 72;
       ++h) {
    if (topo.host_info(HostId{h}).attached_switch != sw) {
      remote.push_back(HostId{h});
    }
  }
  ASSERT_EQ(remote.size(), 72u);

  workload::Trace trace;
  trace.horizon = kMinute;
  const auto add = [&](HostId dst, SimTime start) {
    workload::Flow f;
    f.src = src;
    f.dst = dst;
    f.start = start;
    trace.flows.push_back(f);
  };
  add(remote[0], 29'500 * kMillisecond);
  for (std::size_t i = 1; i <= 70; ++i) {
    add(remote[i], 30 * kSecond + static_cast<SimTime>(i) * kMicrosecond);
  }
  add(remote[0], 30'100 * kMillisecond);
  add(remote[71], 31'500 * kMillisecond);

  Config cfg;
  cfg.mode = ControlMode::kOpenFlow;
  cfg.rules.rule_ttl = kSecond;
  cfg.grouping.stats_window = 30 * kSecond;
  cfg.state_report_period = 30 * kSecond;

  const RunMetrics sequential = run_sequential(topo, trace, cfg);
  ASSERT_EQ(sequential.flows_flow_table_hit, 1u);
  RuntimeStats stats;
  const RunMetrics sharded = run_sharded(topo, trace, cfg, 2, nullptr, &stats);
  expect_bit_identical(sequential, sharded);
  // Before the fence, the burst plus the repeat, the late flow alone.
  EXPECT_EQ(stats.spans, 3u);
  EXPECT_GT(stats.redecided_flows, 0u);
}

TEST(ShardedRuntimeTest, SpanSplitsAtTheFlowCap) {
  // More than two caps' worth of flows 1 us apart, all before the first
  // control event: the fence interval splits into spans at the cap.
  const auto topo = test_topology(82);
  const std::size_t n = 2 * Network::kMaxSpanFlows + 100;
  const auto trace = spaced_trace(topo, n, kMicrosecond, kMinute);
  ASSERT_LT(trace.flows.back().start, 30 * kSecond);
  const Config cfg = lazy_config();

  const RunMetrics sequential = run_sequential(topo, trace, cfg);
  RuntimeStats stats;
  const RunMetrics sharded = run_sharded(topo, trace, cfg, 2, nullptr, &stats);
  expect_bit_identical(sequential, sharded);
  EXPECT_EQ(stats.spans, 3u);
  EXPECT_EQ(stats.flows, n);
}

TEST(ShardedRuntimeTest, OneShardSpansFollowTheSameRule) {
  // The same flows with the horizon before the first control event: the
  // only simulator events left are the flow chain's, one per span, and
  // one shard cuts exactly the spans two shards do.
  const auto topo = test_topology(82);
  const std::size_t n = 2 * Network::kMaxSpanFlows + 100;
  const auto trace = spaced_trace(topo, n, kMicrosecond, kSecond);
  ASSERT_LT(trace.flows.back().start, trace.horizon);

  for (const std::size_t shards : {1u, 2u}) {
    SCOPED_TRACE(shards);
    Config cfg = lazy_config();
    cfg.runtime.num_shards = shards;
    Network net(topo, cfg);
    net.bootstrap();
    net.replay(trace);
    EXPECT_EQ(net.metrics().flows_seen, n);
    EXPECT_EQ(net.simulator().processed_events(), 3u);
    EXPECT_EQ(net.runtime_obs().spans, shards == 1 ? 0u : 3u);
  }
}

}  // namespace
}  // namespace lazyctrl::runtime
