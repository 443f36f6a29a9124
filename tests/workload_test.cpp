// Tests for trace generation, statistics and the intensity graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"
#include "workload/pair_key_set.h"
#include "workload/stats.h"
#include "workload/trace.h"

namespace lazyctrl::workload {
namespace {

topo::Topology small_topology(std::uint64_t seed = 1) {
  Rng rng(seed);
  topo::MultiTenantOptions opt;
  opt.switch_count = 24;
  opt.tenant_count = 12;
  opt.min_vms_per_tenant = 10;
  opt.max_vms_per_tenant = 30;
  return topo::build_multi_tenant(opt, rng);
}

TEST(DiurnalProfileTest, CumulativeIsMonotoneAndEndsAtOne) {
  const auto cdf = DiurnalProfile::business_day().cumulative();
  double prev = 0;
  for (double x : cdf) {
    EXPECT_GE(x, prev);
    prev = x;
  }
  EXPECT_DOUBLE_EQ(cdf[23], 1.0);
}

TEST(DiurnalProfileTest, HourOfMatchesLinearSearch) {
  const auto linear = [](const std::array<double, 24>& cdf, double u) {
    std::size_t hour = 0;
    while (hour < 23 && cdf[hour] < u) ++hour;
    return hour;
  };
  for (const DiurnalProfile& profile :
       {DiurnalProfile::business_day(), DiurnalProfile::flat()}) {
    const auto cdf = profile.cumulative();
    std::vector<double> draws = {0.0, std::nextafter(1.0, 0.0)};
    for (const double c : cdf) {
      draws.push_back(c);
      draws.push_back(std::nextafter(c, 0.0));
      draws.push_back(std::nextafter(c, 2.0));
    }
    for (const double u : draws) {
      EXPECT_EQ(hour_of(cdf, u), linear(cdf, u)) << "u = " << u;
    }
  }
}

TEST(DiurnalProfileTest, BusinessDayPeaksInAfternoon) {
  const auto p = DiurnalProfile::business_day();
  double night = p.hourly_weight[3], peak = p.hourly_weight[14];
  EXPECT_GT(peak, 2 * night);
}

TEST(FinalizeTraceTest, SortsByStartAndAssignsDenseIds) {
  Trace t;
  t.flows.push_back(Flow{9, HostId{0}, HostId{1}, 300, 1, 100});
  t.flows.push_back(Flow{9, HostId{0}, HostId{1}, 100, 1, 100});
  t.flows.push_back(Flow{9, HostId{0}, HostId{1}, 200, 1, 100});
  finalize_trace(t);
  EXPECT_EQ(t.flows[0].start, 100);
  EXPECT_EQ(t.flows[2].start, 300);
  for (std::size_t i = 0; i < t.flows.size(); ++i) {
    EXPECT_EQ(t.flows[i].id, i);
  }
}

TEST(RealLikeGeneratorTest, ProducesRequestedFlowCount) {
  auto topo = small_topology();
  Rng rng(2);
  RealLikeOptions opt;
  opt.total_flows = 5000;
  const Trace t = generate_real_like(topo, opt, rng);
  EXPECT_EQ(t.flow_count(), 5000u);
}

TEST(RealLikeGeneratorTest, FlowsSortedWithinHorizon) {
  auto topo = small_topology();
  Rng rng(3);
  RealLikeOptions opt;
  opt.total_flows = 2000;
  const Trace t = generate_real_like(topo, opt, rng);
  SimTime prev = 0;
  for (const Flow& f : t.flows) {
    EXPECT_GE(f.start, prev);
    EXPECT_LT(f.start, opt.horizon);
    EXPECT_GE(f.packets, 1u);
    EXPECT_NE(f.src, f.dst);
    prev = f.start;
  }
}

TEST(RealLikeGeneratorTest, TrafficIsSkewed) {
  // Paper §II-A: ~10% of communicating pairs carry ~90% of flows.
  auto topo = small_topology();
  Rng rng(4);
  RealLikeOptions opt;
  opt.total_flows = 40000;
  const Trace t = generate_real_like(topo, opt, rng);
  const TraceStats stats = compute_stats(t, topo);
  EXPECT_GT(stats.top10_pair_flow_share, 0.75);
  EXPECT_LE(stats.top10_pair_flow_share, 1.0);
}

TEST(RealLikeGeneratorTest, TrafficIsLocalized) {
  // Paper §II-A: 5-way partition leaves < ~10% inter-group and centrality
  // around 0.85. We check the shape, generously.
  auto topo = small_topology();
  Rng rng(5);
  RealLikeOptions opt;
  opt.total_flows = 40000;
  const Trace t = generate_real_like(topo, opt, rng);
  const TraceStats stats = compute_stats(t, topo, 5);
  EXPECT_GT(stats.avg_centrality, 0.6);
  EXPECT_GT(stats.intra_group_flow_fraction, 0.7);
}

TEST(RealLikeGeneratorTest, DiurnalShapeVisible) {
  auto topo = small_topology();
  Rng rng(6);
  RealLikeOptions opt;
  opt.total_flows = 50000;
  const Trace t = generate_real_like(topo, opt, rng);
  std::size_t night = 0, afternoon = 0;
  for (const Flow& f : t.flows) {
    const auto hour = f.start / kHour;
    if (hour >= 2 && hour < 5) ++night;
    if (hour >= 13 && hour < 16) ++afternoon;
  }
  EXPECT_GT(afternoon, 2 * night);
}

TEST(SyntheticGeneratorTest, CentralityDecreasesFromSynAToSynC) {
  auto topo = small_topology(7);
  SyntheticOptions a;  // Syn-A: p=90, q=10
  a.p = 90;
  a.q = 10;
  a.total_flows = 30000;
  SyntheticOptions b;  // Syn-B
  b.p = 70;
  b.q = 20;
  b.total_flows = 30000;
  SyntheticOptions c;  // Syn-C
  c.p = 70;
  c.q = 30;
  c.total_flows = 30000;
  Rng r1(8), r2(8), r3(8);
  const auto sa = compute_stats(generate_synthetic(topo, a, r1), topo);
  const auto sb = compute_stats(generate_synthetic(topo, b, r2), topo);
  const auto sc = compute_stats(generate_synthetic(topo, c, r3), topo);
  EXPECT_GT(sa.avg_centrality, sb.avg_centrality);
  EXPECT_GT(sb.avg_centrality, sc.avg_centrality);
}

TEST(SyntheticGeneratorTest, RespectsFlowCountAndHorizon) {
  auto topo = small_topology(9);
  Rng rng(10);
  SyntheticOptions opt;
  opt.total_flows = 1234;
  opt.horizon = 6 * kHour;
  const Trace t = generate_synthetic(topo, opt, rng);
  EXPECT_EQ(t.flow_count(), 1234u);
  for (const Flow& f : t.flows) EXPECT_LT(f.start, 6 * kHour);
}

TEST(ExpandTraceTest, AddsOnlyNewPairsInWindow) {
  auto topo = small_topology(11);
  Rng rng(12);
  RealLikeOptions opt;
  opt.total_flows = 5000;
  const Trace base = generate_real_like(topo, opt, rng);

  std::unordered_set<std::uint64_t> base_pairs;
  for (const Flow& f : base.flows) {
    std::uint32_t lo = f.src.value(), hi = f.dst.value();
    if (lo > hi) std::swap(lo, hi);
    base_pairs.insert((static_cast<std::uint64_t>(hi) << 32) | lo);
  }

  const Trace expanded =
      expand_trace(base, topo, 0.30, 8 * kHour, 24 * kHour, rng);
  EXPECT_NEAR(static_cast<double>(expanded.flow_count()),
              static_cast<double>(base.flow_count()) * 1.30,
              base.flow_count() * 0.02);

  std::size_t extra = 0;
  for (const Flow& f : expanded.flows) {
    std::uint32_t lo = f.src.value(), hi = f.dst.value();
    if (lo > hi) std::swap(lo, hi);
    if (!base_pairs.contains((static_cast<std::uint64_t>(hi) << 32) | lo)) {
      ++extra;
      EXPECT_GE(f.start, 8 * kHour);
      EXPECT_LT(f.start, 24 * kHour);
    }
  }
  EXPECT_NEAR(static_cast<double>(extra),
              static_cast<double>(base.flow_count()) * 0.30,
              base.flow_count() * 0.02);
}

TEST(PairKeySetTest, MatchesUnorderedSetReference) {
  PairKeySet set;
  std::unordered_set<std::uint64_t> reference;
  const std::size_t min_capacity = set.capacity();
  EXPECT_EQ(min_capacity, std::size_t{1} << PairKeySet::kMinBits);
  Rng rng(5);
  std::vector<std::uint64_t> stream = {0, 1, 0};
  for (int i = 0; i < 20000; ++i) {
    // Host-pair-shaped keys from a small universe, so most repeat; key 0
    // is the self-pair of host 0.
    const auto lo = static_cast<std::uint32_t>(rng.next_below(120));
    const auto hi = static_cast<std::uint32_t>(rng.next_below(120));
    stream.push_back((static_cast<std::uint64_t>(std::max(lo, hi)) << 32) |
                     std::min(lo, hi));
  }
  for (const std::uint64_t key : stream) {
    ASSERT_EQ(set.insert(key), reference.insert(key).second) << key;
    ASSERT_EQ(set.size(), reference.size());
    ASSERT_LE(set.size() * 4, set.capacity() * 3 + 4);  // 3/4 load + key 0
  }
  EXPECT_GT(set.capacity(), min_capacity * 64);  // grew from the minimum
  EXPECT_TRUE(std::has_single_bit(set.capacity()));
  for (std::uint64_t lo = 0; lo < 130; ++lo) {
    for (std::uint64_t hi = lo; hi < 130; ++hi) {
      const std::uint64_t key = (hi << 32) | lo;
      EXPECT_EQ(set.insert(key), reference.insert(key).second) << key;
    }
  }
  EXPECT_EQ(set.size(), reference.size());

  // Pre-sizing: the expected count fits without growing.
  PairKeySet sized(1000);
  const std::size_t capacity = sized.capacity();
  for (std::uint64_t k = 0; k < 1000; ++k) EXPECT_TRUE(sized.insert(k * 7919));
  EXPECT_EQ(sized.capacity(), capacity);
  EXPECT_EQ(sized.size(), 1000u);
}

TEST(TraceStatsTest, EmptyTrace) {
  auto topo = small_topology(13);
  const TraceStats s = compute_stats(Trace{}, topo);
  EXPECT_EQ(s.flow_count, 0u);
  EXPECT_EQ(s.distinct_pairs, 0u);
}

TEST(TraceStatsTest, SinglePairIsFullyCentral) {
  auto topo = small_topology(14);
  Trace t;
  Flow f;
  f.src = HostId{0};
  f.dst = HostId{1};
  f.start = 0;
  for (int i = 0; i < 100; ++i) t.flows.push_back(f);
  finalize_trace(t);
  const TraceStats s = compute_stats(t, topo, 5);
  EXPECT_EQ(s.distinct_pairs, 1u);
  EXPECT_DOUBLE_EQ(s.avg_centrality, 1.0);
  EXPECT_DOUBLE_EQ(s.intra_group_flow_fraction, 1.0);
}

TEST(IntensityGraphTest, AggregatesSwitchPairsAsRates) {
  topo::Topology t;
  const SwitchId s0 = t.add_switch();
  const SwitchId s1 = t.add_switch();
  const HostId h0 = t.add_host(TenantId{0}, s0);
  const HostId h1 = t.add_host(TenantId{0}, s1);
  const HostId h2 = t.add_host(TenantId{0}, s1);

  Trace trace;
  trace.horizon = 10 * kSecond;
  for (int i = 0; i < 30; ++i) {
    Flow f;
    f.src = h0;
    f.dst = (i % 2) ? h1 : h2;
    f.start = i * kSecond / 3;
    trace.flows.push_back(f);
  }
  finalize_trace(trace);

  const graph::WeightedGraph g =
      build_intensity_graph(trace, t, 0, 10 * kSecond);
  ASSERT_EQ(g.vertex_count(), 2u);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  // 30 flows over 10 seconds between the switch pair = 3 flows/sec.
  EXPECT_NEAR(g.neighbors(0)[0].weight, 3.0, 1e-9);
}

TEST(IntensityGraphTest, SameSwitchTrafficExcluded) {
  topo::Topology t;
  const SwitchId s0 = t.add_switch();
  const HostId a = t.add_host(TenantId{0}, s0);
  const HostId b = t.add_host(TenantId{0}, s0);
  Trace trace;
  trace.horizon = kSecond;
  Flow f;
  f.src = a;
  f.dst = b;
  trace.flows.push_back(f);
  finalize_trace(trace);
  const graph::WeightedGraph g = build_intensity_graph(trace, t);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(IntensityGraphTest, WindowFiltersFlows) {
  topo::Topology t;
  const SwitchId s0 = t.add_switch();
  const SwitchId s1 = t.add_switch();
  const HostId a = t.add_host(TenantId{0}, s0);
  const HostId b = t.add_host(TenantId{0}, s1);
  Trace trace;
  trace.horizon = 10 * kSecond;
  for (int i = 0; i < 10; ++i) {
    Flow f;
    f.src = a;
    f.dst = b;
    f.start = i * kSecond;
    trace.flows.push_back(f);
  }
  finalize_trace(trace);
  // Only flows in [0, 5s): 5 flows over a 5-second window = 1 flow/sec.
  const graph::WeightedGraph g =
      build_intensity_graph(trace, t, 0, 5 * kSecond);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_NEAR(g.neighbors(0)[0].weight, 1.0, 1e-9);
}

// Parameterized sanity over seeds: generators must be deterministic.
class GeneratorDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GeneratorDeterminismTest, SameSeedSameTrace) {
  auto topo = small_topology(GetParam());
  RealLikeOptions opt;
  opt.total_flows = 1000;
  Rng r1(GetParam()), r2(GetParam());
  const Trace a = generate_real_like(topo, opt, r1);
  const Trace b = generate_real_like(topo, opt, r2);
  ASSERT_EQ(a.flow_count(), b.flow_count());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].src, b.flows[i].src);
    EXPECT_EQ(a.flows[i].dst, b.flows[i].dst);
    EXPECT_EQ(a.flows[i].start, b.flows[i].start);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorDeterminismTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

}  // namespace
}  // namespace lazyctrl::workload

namespace lazyctrl::workload {
namespace {

TEST(TraceUtilTest, SliceSelectsAndRebases) {
  Trace t;
  t.horizon = 10 * kSecond;
  for (int i = 0; i < 10; ++i) {
    Flow f;
    f.src = HostId{0};
    f.dst = HostId{1};
    f.start = i * kSecond;
    t.flows.push_back(f);
  }
  finalize_trace(t);
  const Trace s = slice_trace(t, 3 * kSecond, 7 * kSecond);
  EXPECT_EQ(s.flow_count(), 4u);  // starts 3,4,5,6
  EXPECT_EQ(s.horizon, 4 * kSecond);
  EXPECT_EQ(s.flows.front().start, 0);
  EXPECT_EQ(s.flows.back().start, 3 * kSecond);
}

TEST(TraceUtilTest, SliceOutsideRangeIsEmpty) {
  Trace t;
  t.horizon = kSecond;
  Flow f;
  f.src = HostId{0};
  f.dst = HostId{1};
  f.start = 0;
  t.flows.push_back(f);
  finalize_trace(t);
  const Trace s = slice_trace(t, 5 * kSecond, 6 * kSecond);
  EXPECT_EQ(s.flow_count(), 0u);
  EXPECT_EQ(s.horizon, kSecond);
}

TEST(TraceUtilTest, ConcatShiftsSecondTrace) {
  Trace a;
  a.horizon = 2 * kSecond;
  Flow f;
  f.src = HostId{0};
  f.dst = HostId{1};
  f.start = kSecond;
  a.flows.push_back(f);
  finalize_trace(a);

  Trace b;
  b.horizon = 3 * kSecond;
  f.start = kSecond / 2;
  b.flows.push_back(f);
  finalize_trace(b);

  const Trace c = concat_traces(a, b);
  EXPECT_EQ(c.flow_count(), 2u);
  EXPECT_EQ(c.horizon, 5 * kSecond);
  EXPECT_EQ(c.flows[0].start, kSecond);
  EXPECT_EQ(c.flows[1].start, 2 * kSecond + kSecond / 2);
}

TEST(TraceUtilTest, SliceThenConcatRoundTrips) {
  Trace t;
  t.horizon = 4 * kSecond;
  for (int i = 0; i < 8; ++i) {
    Flow f;
    f.src = HostId{0};
    f.dst = HostId{1};
    f.start = i * kSecond / 2;
    f.packets = static_cast<std::uint32_t>(i + 1);
    t.flows.push_back(f);
  }
  finalize_trace(t);
  const Trace front = slice_trace(t, 0, 2 * kSecond);
  const Trace back = slice_trace(t, 2 * kSecond, 4 * kSecond);
  const Trace rejoined = concat_traces(front, back);
  ASSERT_EQ(rejoined.flow_count(), t.flow_count());
  for (std::size_t i = 0; i < t.flows.size(); ++i) {
    EXPECT_EQ(rejoined.flows[i].start, t.flows[i].start);
    EXPECT_EQ(rejoined.flows[i].packets, t.flows[i].packets);
  }
}

}  // namespace
}  // namespace lazyctrl::workload

// --- golden trace fingerprints ---
//
// Every simulated metric depends on the exact order and content of the
// replayed trace. These constants pin small traces of every generator and
// trace-shaping pass at two seeds, so a change that silently reorders or
// alters a single flow (a different sort, a changed RNG draw order) fails
// here instead of quietly moving every metric downstream.
namespace lazyctrl::workload {
namespace {

/// FNV-1a over the horizon and every field of every flow, in order.
std::uint64_t fingerprint(const Trace& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(t.horizon));
  for (const Flow& f : t.flows) {
    mix(f.id);
    mix(f.src.value());
    mix(f.dst.value());
    mix(static_cast<std::uint64_t>(f.start));
    mix(f.packets);
    mix(f.avg_packet_bytes);
  }
  return h;
}

Trace golden_real_like(std::uint64_t seed) {
  Rng rng(seed);
  RealLikeOptions opt;
  opt.total_flows = 4000;
  return generate_real_like(small_topology(seed), opt, rng);
}

Trace golden_synthetic(std::uint64_t seed) {
  Rng rng(seed);
  SyntheticOptions opt;
  opt.total_flows = 4000;
  return generate_synthetic(small_topology(seed), opt, rng);
}

Trace golden_drifting(std::uint64_t seed) {
  Rng rng(seed);
  DriftingLocalityOptions opt;
  opt.total_flows = 4000;
  return generate_drifting_locality(small_topology(seed), opt, rng);
}

Trace golden_surge(std::uint64_t seed, double factor) {
  Rng rng(seed + 100);
  return surge_trace(golden_real_like(seed), 9 * kHour, 15 * kHour, factor,
                     rng);
}

Trace golden_tenant_windows(std::uint64_t seed) {
  const std::vector<TenantActivityWindow> windows = {
      {TenantId{0}, 2 * kHour, 10 * kHour},
      {TenantId{3}, 0, 6 * kHour},
      {TenantId{5}, kHour, 20 * kHour},
      {TenantId{5}, 8 * kHour, 22 * kHour},
  };
  return restrict_tenant_windows(golden_real_like(seed), small_topology(seed),
                                 windows);
}

Trace golden_expand(std::uint64_t seed) {
  Rng rng(seed + 200);
  return expand_trace(golden_real_like(seed), small_topology(seed), 0.30,
                      8 * kHour, 24 * kHour, rng);
}

struct GoldenCase {
  const char* name;
  Trace (*build)(std::uint64_t seed);
  std::uint64_t want[2];  ///< fingerprints at seeds 1 and 2
};

TEST(TraceFingerprintTest, GeneratorsAndShapingPassesAreUnchanged) {
  const GoldenCase cases[] = {
      {"real_like",
       golden_real_like,
       {0x5abb48636b76f80eULL, 0x89e764f3df9fe2c3ULL}},
      {"synthetic",
       golden_synthetic,
       {0xe418c2c6fac845f7ULL, 0x8d22522e9e738ed1ULL}},
      {"drifting_locality",
       golden_drifting,
       {0xbdcdc61ffb02c8dfULL, 0x91d677489e4c412dULL}},
      {"surge_x1.5",
       [](std::uint64_t s) { return golden_surge(s, 1.5); },
       {0xe19d7dc01a0a3eb2ULL, 0xa0f7862791c5a6adULL}},
      {"surge_x3",
       [](std::uint64_t s) { return golden_surge(s, 3.0); },
       {0x59559ac2b0d86680ULL, 0x4e5f7708e8138134ULL}},
      {"restrict_tenant_windows",
       golden_tenant_windows,
       {0x016f4675ec2f9041ULL, 0x97850709b576f716ULL}},
      {"expand_trace",
       golden_expand,
       {0x5c6d81b6c3f5f0dfULL, 0x151f33ac84ecacedULL}},
  };
  for (const GoldenCase& c : cases) {
    for (std::uint64_t seed : {1, 2}) {
      const Trace t = c.build(seed);
      EXPECT_GT(t.flow_count(), 0u) << c.name;
      EXPECT_EQ(fingerprint(t), c.want[seed - 1])
          << c.name << " at seed " << seed;
    }
  }
}

// The x10 fabric of bench/e2e's lazy_x10 (2713 switches, ~66k hosts),
// where the generators' pair sets hold ~10^5 keys instead of under a
// thousand.
topo::Topology x10_topology(std::uint64_t seed) {
  Rng rng(seed);
  topo::MultiTenantOptions opt;
  opt.switch_count = 2713;
  opt.tenant_count = 1100;
  opt.min_vms_per_tenant = 20;
  opt.max_vms_per_tenant = 100;
  opt.vms_per_switch = 24;
  return topo::build_multi_tenant(opt, rng);
}

TEST(TraceFingerprintTest, RealLikeAndExpandOnTheX10Fabric) {
  const std::uint64_t want_real_like[2] = {0x92a7e1d1d79d3d5dULL,
                                           0x6170350f7bed6daeULL};
  const std::uint64_t want_expand[2] = {0x7e5bc8f59ace8c94ULL,
                                        0xa206cd5668b67c59ULL};
  for (std::uint64_t seed : {1, 2}) {
    const topo::Topology topology = x10_topology(seed);
    Rng rng(seed);
    RealLikeOptions opt;
    opt.total_flows = 200'000;
    const Trace base = generate_real_like(topology, opt, rng);
    EXPECT_EQ(fingerprint(base), want_real_like[seed - 1])
        << "real_like at seed " << seed;
    Rng expand_rng(seed + 200);
    const Trace expanded = expand_trace(base, topology, 0.30, 8 * kHour,
                                        24 * kHour, expand_rng);
    EXPECT_EQ(fingerprint(expanded), want_expand[seed - 1])
        << "expand_trace at seed " << seed;
  }
}

}  // namespace
}  // namespace lazyctrl::workload

// --- finalize_trace / surge_trace against their reference algorithms ---
namespace lazyctrl::workload {
namespace {

/// What finalize_trace must produce: std::stable_sort by start, then
/// dense ids.
Trace reference_finalize(Trace t) {
  std::stable_sort(
      t.flows.begin(), t.flows.end(),
      [](const Flow& a, const Flow& b) { return a.start < b.start; });
  std::uint64_t id = 0;
  for (Flow& f : t.flows) f.id = id++;
  return t;
}

/// One flow per start, each tagged with its arrival index (in `packets`
/// and the endpoints) so a reordering of equal starts shows up.
Trace trace_of(const std::vector<SimTime>& starts) {
  Trace t;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    Flow f;
    f.id = 7;  // finalize_trace must not trust incoming ids
    f.src = HostId{static_cast<std::uint32_t>(i % 251)};
    f.dst = HostId{static_cast<std::uint32_t>(i / 251)};
    f.start = starts[i];
    f.packets = static_cast<std::uint32_t>(i + 1);
    t.flows.push_back(f);
  }
  return t;
}

bool same_flow(const Flow& a, const Flow& b) {
  return a.id == b.id && a.src == b.src && a.dst == b.dst &&
         a.start == b.start && a.packets == b.packets &&
         a.avg_packet_bytes == b.avg_packet_bytes;
}

void expect_same_trace(const Trace& got, const Trace& want) {
  EXPECT_EQ(got.horizon, want.horizon);
  ASSERT_EQ(got.flows.size(), want.flows.size());
  const auto [g, w] = std::mismatch(got.flows.begin(), got.flows.end(),
                                    want.flows.begin(), same_flow);
  EXPECT_TRUE(g == got.flows.end())
      << "first difference at flow " << (g - got.flows.begin());
}

void expect_finalize_matches_reference(const std::vector<SimTime>& starts) {
  Trace t = trace_of(starts);
  const Trace want = reference_finalize(t);
  finalize_trace(t);
  expect_same_trace(t, want);
}

std::vector<SimTime> uniform_starts(std::size_t n, SimTime lo, SimTime hi,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SimTime> starts(n);
  for (SimTime& s : starts) {
    s = lo + static_cast<SimTime>(
                 rng.next_below(static_cast<std::uint64_t>(hi - lo)));
  }
  return starts;
}

TEST(FinalizeTracePropertyTest, TrivialShapes) {
  expect_finalize_matches_reference({});
  expect_finalize_matches_reference({42});
  expect_finalize_matches_reference(std::vector<SimTime>(5000, 42));
  std::vector<SimTime> sorted(5000);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    sorted[i] = static_cast<SimTime>(i / 4);
  }
  expect_finalize_matches_reference(sorted);
  std::reverse(sorted.begin(), sorted.end());
  expect_finalize_matches_reference(sorted);
}

TEST(FinalizeTracePropertyTest, TieHeavyStarts) {
  for (std::uint64_t seed : {1, 2, 3}) {
    expect_finalize_matches_reference(uniform_starts(20'000, 0, 8, seed));
  }
}

TEST(FinalizeTracePropertyTest, FullInt64StartRange) {
  Rng rng(4);
  std::vector<SimTime> starts(20'000);
  for (SimTime& s : starts) s = static_cast<SimTime>(rng.next_u64());
  starts[10] = std::numeric_limits<SimTime>::min();
  starts[20] = std::numeric_limits<SimTime>::max();
  starts[30] = std::numeric_limits<SimTime>::min();
  starts[40] = 0;
  starts[50] = -1;
  expect_finalize_matches_reference(starts);
}

TEST(FinalizeTracePropertyTest, LargeTracesRunSeveralRadixLevels) {
  // A day in nanoseconds, and a narrow range where most of the key is
  // the arrival index.
  expect_finalize_matches_reference(
      uniform_starts(250'000, 0, 24 * kHour, 5));
  expect_finalize_matches_reference(uniform_starts(250'000, 0, 1000, 6));
}

TEST(FinalizeTracePropertyTest, SortedPrefixPlusTail) {
  // A sorted prefix on multiples of 10 in [0, 10000), then an unsorted
  // tail also on multiples of 10, so tail flows tie with prefix flows.
  const auto prefix_plus_tail = [](std::size_t prefix, std::size_t tail,
                                   SimTime lo, SimTime hi,
                                   std::uint64_t seed) {
    std::vector<SimTime> starts;
    for (std::size_t i = 0; i < prefix; ++i) {
      starts.push_back(static_cast<SimTime>(i * 10'000 / prefix) / 10 * 10);
    }
    for (SimTime s : uniform_starts(tail, lo / 10, hi / 10, seed)) {
      starts.push_back(s * 10);
    }
    return starts;
  };
  struct Case {
    const char* where;
    SimTime lo, hi;
  };
  const Case cases[] = {{"before", -5000, 0},       {"inside", 2000, 6000},
                        {"straddling low", -1000, 5000},
                        {"straddling high", 5000, 20'000},
                        {"after", 10'000, 20'000},  {"across", -100, 10'100}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.where);
    expect_finalize_matches_reference(
        prefix_plus_tail(4000, 1000, c.lo, c.hi, 7));
    // A prefix shorter than the tail is sorted together with it.
    expect_finalize_matches_reference(
        prefix_plus_tail(500, 3000, c.lo, c.hi, 8));
  }
}

/// surge_trace as it was first written: copy the base, append the clones,
/// stable-sort the lot.
Trace reference_surge(const Trace& base, SimTime from, SimTime to,
                      double factor, Rng& rng) {
  Trace out = base;
  if (factor <= 1.0 || to <= from) return reference_finalize(out);
  const double extra = factor - 1.0;
  const auto whole = static_cast<std::size_t>(extra);
  const double frac = extra - static_cast<double>(whole);
  const auto window = static_cast<std::uint64_t>(to - from);
  for (const Flow& f : base.flows) {
    if (f.start < from || f.start >= to) continue;
    std::size_t copies = whole;
    if (rng.next_bool(frac)) ++copies;
    for (std::size_t c = 0; c < copies; ++c) {
      Flow dup = f;
      dup.start = from + static_cast<SimTime>(rng.next_below(window));
      out.flows.push_back(dup);
    }
  }
  return reference_finalize(out);
}

TEST(SurgeTraceTest, MatchesReferenceForLvalueAndMovedBase) {
  const topo::Topology topology = small_topology(3);
  Rng gen(3);
  RealLikeOptions opt;
  opt.total_flows = 20'000;
  const Trace generated = generate_real_like(topology, opt, gen);
  Trace unsorted = generated;  // the surge must not assume a sorted base
  std::reverse(unsorted.flows.begin(), unsorted.flows.end());

  const Trace* const bases[] = {&generated, &unsorted};
  for (const Trace* base : bases) {
    for (double factor : {1.0, 1.5, 2.25, 3.0}) {
      SCOPED_TRACE(testing::Message() << "factor " << factor);
      Rng ref_rng(11), lvalue_rng(11), moved_rng(11);
      const Trace want =
          reference_surge(*base, 9 * kHour, 15 * kHour, factor, ref_rng);

      const Trace before = *base;
      expect_same_trace(
          surge_trace(*base, 9 * kHour, 15 * kHour, factor, lvalue_rng),
          want);
      expect_same_trace(*base, before);  // an lvalue base is left alone

      Trace moved = *base;
      expect_same_trace(surge_trace(std::move(moved), 9 * kHour, 15 * kHour,
                                    factor, moved_rng),
                        want);
      // Same number of draws as the reference, in the same order.
      EXPECT_EQ(lvalue_rng.state(), ref_rng.state());
      EXPECT_EQ(moved_rng.state(), ref_rng.state());
    }
  }
}

}  // namespace
}  // namespace lazyctrl::workload

// --- build_intensity_graph against the per-flow builder it replaced ---
namespace lazyctrl::workload {
namespace {

/// The first build_intensity_graph: every flow of the trace is tested
/// against [from, to) and counted into a hash map per flow, and the map's
/// iteration order is the graph's adjacency order.
graph::WeightedGraph reference_intensity_graph(const Trace& trace,
                                               const topo::Topology& topology,
                                               SimTime from, SimTime to) {
  graph::WeightedGraph g(topology.switch_count());
  const double window_sec = to_seconds(to - from);
  std::unordered_map<std::uint64_t, double> switch_pair_flows;
  for (const Flow& f : trace.flows) {
    if (f.start < from || f.start >= to) continue;
    const std::uint32_t a = topology.host_info(f.src).attached_switch.value();
    const std::uint32_t b = topology.host_info(f.dst).attached_switch.value();
    if (a == b) continue;
    const std::uint64_t key =
        a < b ? (static_cast<std::uint64_t>(b) << 32) | a
              : (static_cast<std::uint64_t>(a) << 32) | b;
    switch_pair_flows[key] += 1.0;
  }
  for (const auto& [key, flows] : switch_pair_flows) {
    g.add_edge(static_cast<graph::VertexId>(key & 0xFFFFFFFF),
               static_cast<graph::VertexId>(key >> 32), flows / window_sec);
  }
  return g;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Builds the window's graph both ways and compares them bit for bit:
/// every adjacency entry in order, the edge count and the total weight.
void expect_matches_reference(const Trace& trace,
                              const topo::Topology& topology, SimTime from,
                              SimTime to) {
  SCOPED_TRACE(testing::Message() << "window [" << from << ", " << to << ")");
  const graph::WeightedGraph got =
      build_intensity_graph(trace, topology, from, to);
  const graph::WeightedGraph want =
      reference_intensity_graph(trace, topology, from, to);
  ASSERT_EQ(got.vertex_count(), want.vertex_count());
  EXPECT_EQ(got.edge_count(), want.edge_count());
  EXPECT_EQ(bits(got.total_edge_weight()), bits(want.total_edge_weight()));
  for (graph::VertexId v = 0; v < want.vertex_count(); ++v) {
    const auto g = got.neighbors(v);
    const auto w = want.neighbors(v);
    ASSERT_EQ(g.size(), w.size()) << "vertex " << v;
    for (std::size_t i = 0; i < w.size(); ++i) {
      ASSERT_EQ(g[i].vertex, w[i].vertex) << "vertex " << v << " entry " << i;
      ASSERT_EQ(bits(g[i].weight), bits(w[i].weight))
          << "vertex " << v << " entry " << i;
    }
  }
}

TEST(IntensityGraphTest, MatchesPerFlowHashMapReference) {
  // Seeded traces, over windows whose bounds fall on flow starts.
  for (std::uint64_t seed : {1, 2}) {
    const topo::Topology topology = small_topology(seed);
    for (const Trace& t : {golden_real_like(seed), golden_drifting(seed)}) {
      ASSERT_GT(t.flow_count(), 100u);
      const std::size_t n = t.flow_count();
      expect_matches_reference(t, topology, 0, t.horizon);
      expect_matches_reference(t, topology, 0, kHour);
      expect_matches_reference(t, topology, 7 * kHour, 13 * kHour);
      expect_matches_reference(t, topology, t.flows[n / 4].start,
                               t.flows[3 * n / 4].start);
      expect_matches_reference(t, topology, t.flows[n / 3].start,
                               t.flows[n / 3].start + 1);
      expect_matches_reference(t, topology, t.flows.back().start,
                               t.flows.back().start + kSecond);
      expect_matches_reference(t, topology, t.horizon, t.horizon + kHour);
    }
  }

  // Hand-made: two hosts on each of four switches, flows one tick either
  // side of and exactly at each bound, and same-switch flows.
  topo::Topology topology;
  std::vector<HostId> host;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const SwitchId sw = topology.add_switch();
    host.push_back(topology.add_host(TenantId{0}, sw));
    host.push_back(topology.add_host(TenantId{0}, sw));
  }
  const SimTime from = 10 * kSecond, to = 20 * kSecond;
  Trace t;
  t.horizon = 30 * kSecond;
  const auto add = [&](std::size_t src, std::size_t dst, SimTime start) {
    Flow f;
    f.src = host[src];
    f.dst = host[dst];
    f.start = start;
    t.flows.push_back(f);
  };
  add(0, 2, from - 1);
  add(2, 4, from);
  add(5, 3, from);
  add(0, 1, from);  // same switch
  add(6, 0, from + kSecond);
  add(1, 7, 15 * kSecond);
  add(4, 5, 15 * kSecond);  // same switch
  add(3, 6, to - 1);
  add(4, 2, to - 1);
  add(7, 1, to);
  add(1, 6, to);
  add(0, 4, to + 1);
  finalize_trace(t);
  expect_matches_reference(t, topology, from, to);
  expect_matches_reference(t, topology, from - 1, to + 1);
  expect_matches_reference(t, topology, from + 1, to - 1);
  expect_matches_reference(t, topology, from, from + 1);
  expect_matches_reference(t, topology, to - 1, to);
  expect_matches_reference(t, topology, 16 * kSecond, 17 * kSecond);  // empty
  expect_matches_reference(t, topology, 0, t.horizon);
  expect_matches_reference(t, topology, t.horizon, 2 * t.horizon);
  const graph::WeightedGraph g = build_intensity_graph(t, topology, from, to);
  // Switch pairs {1,2} x3, {0,3} x2 and {1,3} x1; same-switch flows none.
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_DOUBLE_EQ(g.total_edge_weight(), 6.0 / 10.0);
}

}  // namespace
}  // namespace lazyctrl::workload
