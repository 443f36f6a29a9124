// Sliced-vs-linear Bloom bank equivalence.
//
// The bit-sliced SlicedBloomBank must produce candidate sets that are
// BIT-IDENTICAL to the linear BloomBank — including false positives —
// for the same BloomParameters/BloomHash, across arbitrary build, peer
// add, member-set rebuild and migration-style re-sync sequences. These
// are randomized property suites over seeds and filter geometries, plus
// an end-to-end check that a full replay (with DGM migrations rebuilding
// G-FIBs along the way) is metric-identical under either layout.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "bloom/bloom_bank.h"
#include "bloom/sliced_bloom_bank.h"
#include "common/rng.h"
#include "core/network.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/intensity.h"

namespace lazyctrl {
namespace {

std::vector<SwitchId> query_linear(const BloomBank& bank, MacAddress mac) {
  std::vector<SwitchId> hits;
  bank.query_into(BloomHash::of(mac), hits);
  return hits;
}

std::vector<SwitchId> query_sliced(const bloom::SlicedBloomBank& bank,
                                   MacAddress mac) {
  std::vector<SwitchId> hits;
  bank.query_into(BloomHash::of(mac), hits);
  return hits;
}

/// Asserts both banks answer identically for `mac` (order included).
void expect_same_candidates(const BloomBank& linear,
                            const bloom::SlicedBloomBank& sliced,
                            MacAddress mac) {
  EXPECT_EQ(query_linear(linear, mac), query_sliced(sliced, mac))
      << "candidate sets diverged for mac " << mac.bits();
}

class BankEquivalenceProperty
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, std::size_t>> {};

// Random op sequence: build (new and replacing), drop a peer, clear —
// after every op the two banks must agree on member keys, never-inserted
// keys (the false-positive surface) and adversarially similar keys.
TEST_P(BankEquivalenceProperty, RandomOpsKeepCandidateSetsIdentical) {
  const auto [seed, bits, hashes] = GetParam();
  Rng rng(seed);
  const BloomParameters params{bits, hashes};
  BloomBank linear(params);
  bloom::SlicedBloomBank sliced(params);
  // Reference model: peer -> its host list (to pick member queries).
  std::map<SwitchId, std::vector<MacAddress>> model;

  for (int op = 0; op < 120; ++op) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 55 || model.empty()) {
      // Build (or rebuild) a peer: ids collide on purpose so replace and
      // mid-sequence column insertion both get exercised, and the peer
      // population crosses the 64-peer word boundary of the sliced rows.
      const SwitchId peer{static_cast<std::uint32_t>(rng.next_below(90))};
      std::vector<MacAddress> hosts;
      const std::size_t n = rng.next_below(40);
      for (std::size_t i = 0; i < n; ++i) {
        hosts.push_back(MacAddress::for_host(
            static_cast<std::uint32_t>(rng.next_below(5000))));
      }
      linear.build_filter(peer, hosts);
      sliced.build_filter(peer, hosts);
      model[peer] = std::move(hosts);
    } else if (dice < 85) {
      // Drop a random present peer (and occasionally an absent one).
      // Banks have no filter removal: both are rebuilt from the remaining
      // peers in ascending id order, the way a group bank follows a
      // member-set change.
      SwitchId peer{static_cast<std::uint32_t>(rng.next_below(90))};
      if (dice < 80) {
        auto it = model.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(model.size())));
        peer = it->first;
        model.erase(it);
      } else {
        model.erase(peer);
      }
      linear.clear();
      sliced.clear();
      for (const auto& [p, hosts] : model) {
        linear.build_filter(p, hosts);
        sliced.build_filter(p, hosts);
      }
    } else {
      linear.clear();
      sliced.clear();
      model.clear();
    }

    ASSERT_EQ(linear.filter_count(), sliced.filter_count());
    // Member keys (no false negatives on either side, same owners).
    for (const auto& [peer, hosts] : model) {
      if (!hosts.empty()) {
        expect_same_candidates(linear, sliced,
                               hosts[rng.next_below(hosts.size())]);
      }
    }
    // Unknown keys: false positives must match exactly too.
    for (int q = 0; q < 8; ++q) {
      expect_same_candidates(
          linear, sliced,
          MacAddress::for_host(static_cast<std::uint32_t>(
              1'000'000 + rng.next_below(100'000))));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndGeometries, BankEquivalenceProperty,
    ::testing::Values(std::make_tuple(1, 16384, 8),   // paper geometry
                      std::make_tuple(2, 16384, 8),
                      std::make_tuple(3, 1024, 4),    // dense, many FPs
                      std::make_tuple(4, 257, 3),     // odd bits: rounding
                      std::make_tuple(5, 64, 1),
                      std::make_tuple(6, 4096, 12)));

// Out-of-order column inserts and in-place column rebuilds must land on
// the same slice table as building the final state from scratch in
// ascending order (catches neighbour-column corruption in the bit-shift
// paths, which candidate comparison against the linear bank could only
// see probabilistically).
TEST(SlicedBankIncrementalTest, IncrementalEqualsFromScratch) {
  Rng rng(99);
  const BloomParameters params{8192, 6};
  bloom::SlicedBloomBank incremental(params);
  std::map<SwitchId, std::vector<MacAddress>> model;

  for (int op = 0; op < 200; ++op) {
    const SwitchId peer{static_cast<std::uint32_t>(rng.next_below(140))};
    std::vector<MacAddress> hosts;
    for (std::size_t i = 0; i < 1 + rng.next_below(20); ++i) {
      hosts.push_back(MacAddress::for_host(
          static_cast<std::uint32_t>(rng.next_below(4000))));
    }
    incremental.build_filter(peer, hosts);
    model[peer] = std::move(hosts);
  }

  bloom::SlicedBloomBank scratch(params);
  for (const auto& [peer, hosts] : model) scratch.build_filter(peer, hosts);

  ASSERT_EQ(incremental.filter_count(), scratch.filter_count());
  ASSERT_EQ(incremental.peers(), scratch.peers());
  for (int q = 0; q < 4000; ++q) {
    const MacAddress mac =
        MacAddress::for_host(static_cast<std::uint32_t>(rng.next_below(8000)));
    EXPECT_EQ(query_sliced(incremental, mac), query_sliced(scratch, mac));
  }
}

// The slice table is sized by the column count: ⌈n/8⌉ bytes per row. A
// bank rebuilt after clear() for a smaller group does not keep the old
// high-water stride, and an empty bank reports zero like the linear
// layout does.
TEST(SlicedBankStorageTest, StrideFollowsColumnCountAcrossRebuilds) {
  const BloomParameters params{16384, 8};
  bloom::SlicedBloomBank bank(params);
  BloomBank linear(params);
  std::vector<MacAddress> hosts = {MacAddress::for_host(1),
                                   MacAddress::for_host(2)};
  for (std::uint32_t p = 0; p < 92; ++p) {
    bank.build_filter(SwitchId{p}, hosts);
  }
  EXPECT_EQ(bank.storage_bytes(), 16384u * 12u);  // ceil(92/8) bytes/row

  bank.clear();
  EXPECT_EQ(bank.storage_bytes(), 0u);
  EXPECT_EQ(bank.filter_count(), 0u);

  for (std::uint32_t p = 0; p < 8; ++p) {
    bank.build_filter(SwitchId{p}, hosts);
    linear.build_filter(SwitchId{p}, hosts);
  }
  EXPECT_EQ(bank.storage_bytes(), 16384u * 1u);
  // And the rebuilt columns answer exactly like the linear bank.
  for (std::uint32_t q = 0; q < 64; ++q) {
    expect_same_candidates(linear, bank, MacAddress::for_host(q));
  }
}

// End-to-end: a DGM-maintained replay (drift-triggered migrations rebuild
// G-FIBs mid-run through the delta sync path) must be metric-identical
// under both layouts — the "full replay metrics unchanged vs linear
// layout" acceptance of the bit-sliced G-FIB.
TEST(GFibLayoutReplayEquivalence, DgmReplayMetricsIdentical) {
  Rng topo_rng(11);
  topo::MultiTenantOptions topt;
  topt.switch_count = 20;
  topt.tenant_count = 10;
  topt.min_vms_per_tenant = 8;
  topt.max_vms_per_tenant = 16;
  topt.vms_per_switch = 8;
  const auto topo = topo::build_multi_tenant(topt, topo_rng);

  Rng trace_rng(12);
  workload::DriftingLocalityOptions wopt;
  wopt.total_flows = 20'000;
  wopt.community_count = 4;
  wopt.phases = 3;
  wopt.drift_fraction = 0.3;
  wopt.horizon = 90 * kMinute;
  const auto trace =
      workload::generate_drifting_locality(topo, wopt, trace_rng);
  const auto history =
      workload::build_intensity_graph(trace, topo, 0, trace.horizon / 3);

  auto run = [&](core::GFibLayout layout) {
    core::Config cfg;
    cfg.mode = core::ControlMode::kLazyCtrl;
    cfg.grouping.group_size_limit = 6;
    cfg.dgm.mode = core::DgmMode::kDriftTriggered;
    cfg.dgm.maintenance_period = 2 * kMinute;
    cfg.dgm.cooldown = 1 * kMinute;
    cfg.fib.layout = layout;
    auto net = std::make_unique<core::Network>(topo, cfg);
    net->bootstrap(history);
    net->replay(trace);
    return net;
  };

  auto lin = run(core::GFibLayout::kLinear);
  auto sli = run(core::GFibLayout::kSliced);

  const core::RunMetrics& a = lin->metrics();
  const core::RunMetrics& b = sli->metrics();
  EXPECT_EQ(a.flows_seen, b.flows_seen);
  EXPECT_EQ(a.flows_flow_table_hit, b.flows_flow_table_hit);
  EXPECT_EQ(a.flows_local_delivery, b.flows_local_delivery);
  EXPECT_EQ(a.flows_intra_group, b.flows_intra_group);
  EXPECT_EQ(a.flows_inter_group, b.flows_inter_group);
  EXPECT_EQ(a.controller_packet_ins, b.controller_packet_ins);
  EXPECT_EQ(a.bf_false_positive_copies, b.bf_false_positive_copies);
  EXPECT_EQ(a.packets_accounted, b.packets_accounted);
  EXPECT_EQ(a.dgm_plans_applied, b.dgm_plans_applied);
  EXPECT_EQ(a.dgm_flow_mods, b.dgm_flow_mods);
  EXPECT_DOUBLE_EQ(a.first_packet_latency_ms.mean(),
                   b.first_packet_latency_ms.mean());

  // And after all migrations, every switch's G-FIB answers identically.
  Rng probe_rng(7);
  std::vector<SwitchId> hits_a;
  std::vector<SwitchId> hits_b;
  for (std::uint32_t s = 0; s < topo.switch_count(); ++s) {
    const auto& ga = lin->edge_switch(SwitchId{s}).gfib();
    const auto& gb = sli->edge_switch(SwitchId{s}).gfib();
    ASSERT_EQ(ga.peer_count(), gb.peer_count());
    for (int q = 0; q < 64; ++q) {
      const BloomHash h = BloomHash::of(MacAddress::for_host(
          static_cast<std::uint32_t>(probe_rng.next_below(4000))));
      hits_a.clear();
      hits_b.clear();
      ga.query_into(h, hits_a);
      gb.query_into(h, hits_b);
      ASSERT_EQ(hits_a, hits_b) << "switch " << s;
    }
  }
}

}  // namespace
}  // namespace lazyctrl
