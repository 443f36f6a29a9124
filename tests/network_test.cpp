// Integration tests: the full Network façade in both control modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/network.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl::core {
namespace {

topo::Topology test_topology(std::uint64_t seed = 1, std::size_t switches = 16,
                             std::size_t tenants = 8) {
  Rng rng(seed);
  topo::MultiTenantOptions opt;
  opt.switch_count = switches;
  opt.tenant_count = tenants;
  opt.min_vms_per_tenant = 10;
  opt.max_vms_per_tenant = 30;
  return topo::build_multi_tenant(opt, rng);
}

workload::Trace test_trace(const topo::Topology& topo, std::size_t flows,
                           std::uint64_t seed = 2) {
  Rng rng(seed);
  workload::RealLikeOptions opt;
  opt.total_flows = flows;
  opt.horizon = 2 * kHour;
  opt.profile = workload::DiurnalProfile::flat();
  return workload::generate_real_like(topo, opt, rng);
}

Config lazy_config(std::size_t limit = 6) {
  Config c;
  c.mode = ControlMode::kLazyCtrl;
  c.grouping.group_size_limit = limit;
  return c;
}

Config openflow_config() {
  Config c;
  c.mode = ControlMode::kOpenFlow;
  return c;
}

TEST(NetworkTest, BootstrapPopulatesFibsAndClib) {
  auto topo = test_topology();
  Network net(topo, lazy_config());
  net.bootstrap();
  EXPECT_EQ(net.controller().clib_size(), topo.host_count());
  for (const auto& sw : topo.switches()) {
    EXPECT_EQ(net.edge_switch(sw.id).lfib().size(),
              topo.hosts_on_switch(sw.id).size());
  }
}

TEST(NetworkTest, BootstrapGroupingRespectsLimit) {
  auto topo = test_topology();
  const auto trace = test_trace(topo, 4000);
  Network net(topo, lazy_config(5));
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  const Grouping& g = net.grouping();
  ASSERT_GT(g.group_count, 0u);
  std::vector<std::size_t> sizes(g.group_count, 0);
  for (std::uint32_t x : g.switch_to_group) ++sizes[x];
  for (std::size_t s : sizes) EXPECT_LE(s, 5u);
}

TEST(NetworkTest, GfibsSyncedWithinGroups) {
  auto topo = test_topology();
  const auto trace = test_trace(topo, 4000);
  Network net(topo, lazy_config(5));
  net.bootstrap(workload::build_intensity_graph(trace, topo));

  const auto members = net.grouping().members();
  for (const auto& group : members) {
    for (SwitchId m : group) {
      EXPECT_EQ(net.edge_switch(m).gfib().peer_count(), group.size() - 1);
    }
  }
}

TEST(NetworkTest, OpenFlowEveryFirstFlowHitsController) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 500);
  // Make every flow's pair unique enough that rule caching cannot absorb
  // them: expire rules instantly.
  Config cfg = openflow_config();
  cfg.rules.rule_ttl = 1;  // 1 ns: effectively no caching
  Network net(topo, cfg);
  net.bootstrap();
  net.replay(trace);
  const RunMetrics& m = net.metrics();
  EXPECT_EQ(m.flows_seen, 500u);
  EXPECT_EQ(m.controller_packet_ins, 500u);
}

TEST(NetworkTest, OpenFlowRuleCachingAbsorbsRepeats) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 2000);
  Config cfg = openflow_config();
  cfg.rules.rule_ttl = 24 * kHour;  // never expires within the trace
  Network net(topo, cfg);
  net.bootstrap();
  net.replay(trace);
  const RunMetrics& m = net.metrics();
  // Repeated pairs hit the cached exact-match rule.
  EXPECT_LT(m.controller_packet_ins, m.flows_seen);
  EXPECT_GT(m.flows_flow_table_hit, 0u);
  EXPECT_EQ(m.flows_flow_table_hit + m.controller_packet_ins, m.flows_seen);
}

TEST(NetworkTest, LazyCtrlIntraGroupFlowsBypassController) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 3000);
  Config cfg = lazy_config(8);
  cfg.rules.rule_ttl = 1;  // isolate the G-FIB path from rule caching
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  net.replay(trace);
  const RunMetrics& m = net.metrics();
  EXPECT_GT(m.flows_intra_group + m.flows_local_delivery, 0u);
  // Intra-group + local flows never touched the controller.
  EXPECT_EQ(m.controller_packet_ins,
            m.flows_inter_group + m.transition_punts);
  // All flows accounted for in exactly one class.
  EXPECT_EQ(m.flows_seen,
            m.flows_intra_group + m.flows_local_delivery +
                m.flows_inter_group + m.flows_flow_table_hit +
                m.transition_punts);
}

TEST(NetworkTest, LazyCtrlReducesControllerWorkload) {
  auto topo = test_topology(3, 20, 10);
  auto trace = test_trace(topo, 20000, 4);
  const auto history = workload::build_intensity_graph(trace, topo);

  Network lazy(topo, lazy_config(7));
  lazy.bootstrap(history);
  lazy.replay(trace);

  Network base(topo, openflow_config());
  base.bootstrap();
  base.replay(trace);

  ASSERT_GT(base.metrics().controller_packet_ins, 0u);
  const double reduction =
      1.0 - static_cast<double>(lazy.metrics().controller_packet_ins) /
                static_cast<double>(base.metrics().controller_packet_ins);
  // The paper reports 61-82%; any strong majority reduction validates the
  // mechanism at this scale.
  EXPECT_GT(reduction, 0.5) << "reduction=" << reduction;
}

TEST(NetworkTest, LazyCtrlLowersAverageLatency) {
  auto topo = test_topology(5, 20, 10);
  auto trace = test_trace(topo, 10000, 6);
  const auto history = workload::build_intensity_graph(trace, topo);

  Network lazy(topo, lazy_config(7));
  lazy.bootstrap(history);
  lazy.replay(trace);

  Network base(topo, openflow_config());
  base.bootstrap();
  base.replay(trace);

  const double lazy_ms = lazy.metrics().first_packet_latency_ms.mean();
  const double base_ms = base.metrics().first_packet_latency_ms.mean();
  EXPECT_LT(lazy_ms, base_ms);
}

TEST(NetworkTest, InterGroupFlowsInstallCoarseRules) {
  // Spread tenants thin (few VMs per switch) and add heavy cross-tenant
  // traffic so that inter-group flows actually repeat.
  Rng trng(21);
  topo::MultiTenantOptions topt;
  topt.switch_count = 16;
  topt.tenant_count = 8;
  topt.min_vms_per_tenant = 10;
  topt.max_vms_per_tenant = 30;
  topt.vms_per_switch = 4;  // tenants span many switches
  auto topo = topo::build_multi_tenant(topt, trng);

  Rng wrng(22);
  workload::RealLikeOptions wopt;
  wopt.total_flows = 5000;
  wopt.horizon = 2 * kHour;
  wopt.profile = workload::DiurnalProfile::flat();
  wopt.cross_tenant_pair_fraction = 0.5;
  auto trace = workload::generate_real_like(topo, wopt, wrng);

  Config cfg = lazy_config(4);
  cfg.rules.rule_ttl = 24 * kHour;
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  net.replay(trace);
  const RunMetrics& m = net.metrics();
  ASSERT_GT(m.flows_inter_group, 0u);
  // With long-lived rules, later flows to the same destination hit the
  // coarse rule instead of the controller.
  EXPECT_GT(m.flows_flow_table_hit, 0u);
  EXPECT_EQ(m.controller_packet_ins, m.flows_inter_group);
}

TEST(NetworkTest, MigrationUpdatesLocationState) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 100);
  Network net(topo, lazy_config(5));
  net.bootstrap(workload::build_intensity_graph(trace, topo));

  const HostId host = topo.hosts().front().id;
  const MacAddress mac = topo.hosts().front().mac;
  const SwitchId from = topo.hosts().front().attached_switch;
  const SwitchId to{(from.value() + 1) % static_cast<std::uint32_t>(
                                             topo.switch_count())};

  net.schedule_migration(host, to, 10 * kMinute);
  net.replay(trace);

  EXPECT_FALSE(net.edge_switch(from).lfib().contains(mac));
  EXPECT_TRUE(net.edge_switch(to).lfib().contains(mac));
  EXPECT_EQ(net.controller().clib_lookup(mac)->attached_switch, to);
  EXPECT_EQ(net.topology().host_info(host).attached_switch, to);

  // G-FIB freshness: every group peer of `to` must now find the migrated
  // MAC behind `to` (Bloom filters have no false negatives), even though
  // `to`'s filter was already installed before the move — the delta
  // resync must treat migration-changed members as dirty, not keep the
  // stale filter.
  const auto members = net.grouping().members();
  const auto& to_group =
      members[net.grouping().group_of(to).value()];
  for (SwitchId peer : to_group) {
    if (peer == to) continue;
    std::vector<SwitchId> candidates;
    net.edge_switch(peer).gfib().query_into(BloomHash::of(mac), candidates);
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), to),
              candidates.end())
        << "peer " << peer << " has a stale filter for " << to;
  }
}

TEST(NetworkTest, ColdCacheLatencyOrdering) {
  // §V-E: LazyCtrl intra-group << LazyCtrl inter-group < OpenFlow.
  auto topo = test_topology(7, 12, 6);
  auto trace = test_trace(topo, 3000, 8);
  const auto history = workload::build_intensity_graph(trace, topo);

  Network lazy(topo, lazy_config(6));
  lazy.bootstrap(history);

  // Find two switches in the same group and one in another group.
  const auto members = lazy.grouping().members();
  ASSERT_GT(members.size(), 1u);
  const auto& g0 = members[0];
  ASSERT_GE(g0.size(), 2u);
  const SwitchId in_a = g0[0], in_b = g0[1];
  const SwitchId other = members[1][0];

  const TenantId tenant{0};
  const HostId src = lazy.add_silent_host(tenant, in_a);
  const HostId dst_same = lazy.add_silent_host(tenant, in_b);
  const HostId dst_other = lazy.add_silent_host(tenant, other);

  const SimDuration intra = lazy.cold_cache_first_packet(src, dst_same);
  const HostId src2 = lazy.add_silent_host(tenant, in_a);
  const SimDuration inter = lazy.cold_cache_first_packet(src2, dst_other);

  Network base(topo, openflow_config());
  base.bootstrap();
  const HostId bsrc = base.add_silent_host(tenant, in_a);
  const HostId bdst = base.add_silent_host(tenant, in_b);
  const SimDuration of = base.cold_cache_first_packet(bsrc, bdst);

  EXPECT_LT(intra, inter);
  EXPECT_LT(inter, of);
  // Paper's order-of-magnitude gap between intra-group and OpenFlow.
  EXPECT_GT(static_cast<double>(of) / static_cast<double>(intra), 3.0);
}

TEST(NetworkTest, ColdCacheSecondFlowIsWarm) {
  auto topo = test_topology(9, 12, 6);
  auto trace = test_trace(topo, 2000, 9);
  Network net(topo, lazy_config(6));
  net.bootstrap(workload::build_intensity_graph(trace, topo));

  const auto members = net.grouping().members();
  const auto& g0 = members[0];
  ASSERT_GE(g0.size(), 2u);
  const HostId a = net.add_silent_host(TenantId{0}, g0[0]);
  const HostId b = net.add_silent_host(TenantId{0}, g0[1]);
  const SimDuration cold = net.cold_cache_first_packet(a, b);
  const SimDuration warm = net.cold_cache_first_packet(a, b);
  EXPECT_LE(warm, cold);
}

TEST(NetworkTest, ColdCacheLearningRefreshesGroupGfib) {
  // One 8-switch group. The cold-cache cascade teaches the fabric two
  // new hosts; every other member's G-FIB must then match each of them
  // behind its switch (Bloom filters have no false negatives), which
  // requires re-syncing both learning switches' filters.
  auto topo = test_topology(5, 8, 4);
  Network net(topo, lazy_config(8));
  net.bootstrap();
  ASSERT_EQ(net.grouping().group_count, 1u);

  const SwitchId src_sw{0};
  const SwitchId dst_sw{5};
  const HostId src = net.add_silent_host(TenantId{0}, src_sw);
  const HostId dst = net.add_silent_host(TenantId{0}, dst_sw);
  net.cold_cache_first_packet(src, dst);

  std::vector<SwitchId> candidates;
  for (const auto& [host, owner] : {std::pair{src, src_sw}, {dst, dst_sw}}) {
    const MacAddress mac = net.topology().host_info(host).mac;
    for (std::uint32_t s = 0; s < 8; ++s) {
      if (SwitchId{s} == owner) continue;
      candidates.clear();
      net.edge_switch(SwitchId{s}).gfib().query_into(BloomHash::of(mac),
                                                     candidates);
      EXPECT_NE(std::find(candidates.begin(), candidates.end(), owner),
                candidates.end())
          << "switch " << s << "'s G-FIB misses host " << host << " on "
          << owner;
    }
  }
}

TEST(NetworkTest, DynamicRegroupingTriggersUnderDrift) {
  // Build a trace whose second half shifts traffic to new inter-group
  // pairs; with dynamic regrouping on, updates must fire. The drift is
  // *capturable*: two tenants (on disjoint switch sets) suddenly start
  // exchanging heavy traffic, so regrouping can co-locate their switches.
  auto topo = test_topology(11, 20, 10);
  Rng rng(12);
  workload::RealLikeOptions opt;
  opt.total_flows = 30000;
  opt.horizon = 2 * kHour;
  opt.profile = workload::DiurnalProfile::flat();
  auto trace = workload::generate_real_like(topo, opt, rng);

  std::vector<HostId> t0_hosts, t1_hosts;
  for (const auto& h : topo.hosts()) {
    if (h.tenant == TenantId{0}) t0_hosts.push_back(h.id);
    if (h.tenant == TenantId{1}) t1_hosts.push_back(h.id);
  }
  ASSERT_FALSE(t0_hosts.empty());
  ASSERT_FALSE(t1_hosts.empty());
  for (std::size_t i = 0; i < 30000; ++i) {
    workload::Flow f;
    f.src = t0_hosts[rng.next_below(t0_hosts.size())];
    f.dst = t1_hosts[rng.next_below(t1_hosts.size())];
    f.start = kHour + static_cast<SimTime>(rng.next_below(kHour));
    f.packets = 4;
    f.avg_packet_bytes = 400;
    trace.flows.push_back(f);
  }
  workload::finalize_trace(trace);

  Config cfg = lazy_config(7);
  cfg.dgm.mode = DgmMode::kControllerLoad;
  cfg.dgm.cooldown = 2 * kMinute;
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo, 0, kHour));
  net.replay(trace);
  EXPECT_GT(net.metrics().grouping_update_count, 0u);
}

TEST(NetworkTest, StaticModeNeverRegroups) {
  auto topo = test_topology(13, 20, 10);
  auto trace = test_trace(topo, 20000, 14);
  Config cfg = lazy_config(7);
  cfg.dgm.mode = DgmMode::kOff;
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  net.replay(trace);
  EXPECT_EQ(net.metrics().grouping_update_count, 0u);
}

TEST(NetworkTest, HostExclusionSendsExcludedFlowsToController) {
  auto topo = test_topology(15, 10, 20);  // many tenants per switch
  auto trace = test_trace(topo, 2000, 16);
  Config cfg = lazy_config(5);
  cfg.grouping.host_exclusion_tenant_threshold = 1;  // aggressive exclusion
  Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  EXPECT_FALSE(net.excluded_hosts().empty());
  net.replay(trace);
  EXPECT_GT(net.metrics().controller_packet_ins, 0u);
}

TEST(NetworkTest, GfibStorageReported) {
  auto topo = test_topology();
  auto trace = test_trace(topo, 2000);
  Network net(topo, lazy_config(5));
  net.bootstrap(workload::build_intensity_graph(trace, topo));
  EXPECT_GT(net.total_gfib_bytes(), 0u);
}

class GfibFootprintTest : public ::testing::TestWithParam<GFibLayout> {};

TEST_P(GfibFootprintTest, OneBankPerGroup) {
  // Footprint guard: a group's filters are stored once, not once per
  // member. On a 272-switch fabric at the paper's 46-switch group limit
  // the total is exactly one bank per group of S members over m-bit
  // filters: m*ceil(S/8) bytes bit-sliced, S*m/8 bytes linear.
  Config cfg = lazy_config(46);
  cfg.fib.layout = GetParam();
  Network net(test_topology(3, 272, 40), cfg);
  net.bootstrap();
  const std::size_t m =
      ((std::max<std::size_t>(cfg.fib.bloom_bits, 64) + 63) / 64) * 64;
  std::size_t expected = 0;
  const auto members = net.grouping().members();
  ASSERT_GE(members.size(), 6u);
  for (const auto& group : members) {
    const std::size_t s = group.size();
    expected += GetParam() == GFibLayout::kSliced ? m * ((s + 7) / 8)
                                                  : s * m / 8;
  }
  EXPECT_EQ(net.total_gfib_bytes(), expected);
}

INSTANTIATE_TEST_SUITE_P(Layouts, GfibFootprintTest,
                         ::testing::Values(GFibLayout::kLinear,
                                           GFibLayout::kSliced),
                         [](const auto& info) {
                           return info.param == GFibLayout::kLinear
                                      ? "Linear"
                                      : "Sliced";
                         });

TEST(NetworkTest, DeterministicReplay) {
  auto topo = test_topology(17);
  auto trace = test_trace(topo, 5000, 18);
  const auto history = workload::build_intensity_graph(trace, topo);

  Network a(topo, lazy_config(6));
  a.bootstrap(history);
  a.replay(trace);
  Network b(topo, lazy_config(6));
  b.bootstrap(history);
  b.replay(trace);

  EXPECT_EQ(a.metrics().controller_packet_ins,
            b.metrics().controller_packet_ins);
  EXPECT_EQ(a.metrics().flows_intra_group, b.metrics().flows_intra_group);
  EXPECT_EQ(a.metrics().grouping_update_count,
            b.metrics().grouping_update_count);
}

// The replay loop handles a span of flows per simulator event: the
// flows that start before the next pending event, within one rule TTL of
// the span's first flow and at most Network::kMaxSpanFlows of them. Span
// boundaries must never change a result. The reference run schedules a
// no-op event at every flow's start before replay(), which ends every
// span after one flow (or one run of equal start times).
struct SpanRun {
  RunMetrics metrics;
  std::uint64_t events;  ///< simulator events processed, no-ops included
};

SpanRun run_spans(const topo::Topology& topo, const workload::Trace& trace,
                  const Config& cfg, const graph::WeightedGraph* history,
                  bool one_flow_spans,
                  const std::function<void(Network&)>& before_replay = {}) {
  Network net(topo, cfg);
  if (history != nullptr) {
    net.bootstrap(*history);
  } else {
    net.bootstrap();
  }
  if (before_replay) before_replay(net);
  if (one_flow_spans) {
    for (const workload::Flow& f : trace.flows) {
      net.simulator().schedule_at(f.start, [] {});
    }
  }
  net.replay(trace);
  return {net.metrics(), net.simulator().processed_events()};
}

/// Replays `trace` with full spans and with one-flow spans and requires
/// identical metrics; the reference must really have cut more spans.
void expect_span_independent(
    const topo::Topology& topo, const workload::Trace& trace,
    const Config& cfg, const graph::WeightedGraph* history = nullptr,
    const std::function<void(Network&)>& before_replay = {}) {
  const SpanRun spans =
      run_spans(topo, trace, cfg, history, false, before_replay);
  const SpanRun one_flow =
      run_spans(topo, trace, cfg, history, true, before_replay);
  EXPECT_TRUE(spans.metrics.identical_to(one_flow.metrics))
      << spans.metrics.diff_report(one_flow.metrics);
  EXPECT_GT(one_flow.events, spans.events + trace.flow_count());
}

TEST(NetworkSpanTest, SpansIdenticalToOneFlowSpans) {
  auto topo = test_topology(21);
  auto trace = test_trace(topo, 8000, 22);
  const auto history = workload::build_intensity_graph(trace, topo);

  for (const DgmMode mode : {DgmMode::kOff, DgmMode::kControllerLoad}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Config cfg = lazy_config(6);
    cfg.dgm.mode = mode;
    expect_span_independent(topo, trace, cfg, &history);
  }
}

TEST(NetworkSpanTest, OpenFlowSpansIdenticalToOneFlowSpans) {
  auto topo = test_topology(23);
  auto trace = test_trace(topo, 8000, 24);
  expect_span_independent(topo, trace, openflow_config());
}

TEST(NetworkSpanTest, SpansIdenticalUnderDgmMigrationAndTies) {
  // The stress case for the span fence: DGM maintenance events, stats
  // windows and a mid-replay migration all interleave with spans, start
  // times rounded to 10 ms tie many flows to each other and to control
  // events, and a 30 s TTL cuts spans between control events.
  auto topo = test_topology(25);
  auto trace = test_trace(topo, 8000, 26);
  for (workload::Flow& f : trace.flows) {
    f.start -= f.start % (10 * kMillisecond);
  }
  const auto history = workload::build_intensity_graph(trace, topo);
  const HostId moved = topo.hosts()[0].id;

  Config cfg = lazy_config(6);
  cfg.dgm.mode = DgmMode::kPeriodic;
  cfg.dgm.maintenance_period = 10 * kMinute;
  cfg.rules.rule_ttl = 30 * kSecond;
  expect_span_independent(topo, trace, cfg, &history, [&](Network& net) {
    net.schedule_migration(moved, SwitchId{5}, kHour);
  });
}

}  // namespace
}  // namespace lazyctrl::core
