// Tests for L-FIB and G-FIB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/gfib.h"
#include "core/lfib.h"

namespace lazyctrl::core {
namespace {

TEST(LFibTest, LearnLookupForget) {
  LFib fib;
  const MacAddress mac = MacAddress::for_host(1);
  EXPECT_TRUE(fib.learn(mac, HostId{1}, TenantId{2}));
  ASSERT_TRUE(fib.contains(mac));
  const auto entry = fib.lookup(mac);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->host, HostId{1});
  EXPECT_EQ(entry->tenant, TenantId{2});
  EXPECT_TRUE(fib.forget(mac));
  EXPECT_FALSE(fib.contains(mac));
  EXPECT_FALSE(fib.forget(mac));
}

TEST(LFibTest, RelearnUpdatesWithoutDuplicating) {
  LFib fib;
  const MacAddress mac = MacAddress::for_host(1);
  EXPECT_TRUE(fib.learn(mac, HostId{1}, TenantId{0}));
  EXPECT_FALSE(fib.learn(mac, HostId{1}, TenantId{5}));  // refresh
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.lookup(mac)->tenant, TenantId{5});
}

TEST(LFibTest, MacsListsAllEntries) {
  LFib fib;
  for (std::uint32_t i = 0; i < 10; ++i) {
    fib.learn(MacAddress::for_host(i), HostId{i}, TenantId{0});
  }
  EXPECT_EQ(fib.macs().size(), 10u);
}

TEST(LFibTest, LookupMissing) {
  LFib fib;
  EXPECT_FALSE(fib.lookup(MacAddress::for_host(9)).has_value());
}

TEST(LFibTest, SurvivesGrowthAndChurn) {
  // Exercises the open-addressing table across many grow cycles and the
  // backward-shift deletion across long probe chains: every element must
  // stay reachable after arbitrary interleaved insert/erase.
  LFib fib;
  constexpr std::uint32_t kHosts = 5000;
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    EXPECT_TRUE(fib.learn(MacAddress::for_host(i), HostId{i}, TenantId{0}));
  }
  EXPECT_EQ(fib.size(), kHosts);
  // Forget every third entry...
  for (std::uint32_t i = 0; i < kHosts; i += 3) {
    EXPECT_TRUE(fib.forget(MacAddress::for_host(i)));
  }
  // ...then verify the survivors and the holes.
  for (std::uint32_t i = 0; i < kHosts; ++i) {
    EXPECT_EQ(fib.contains(MacAddress::for_host(i)), i % 3 != 0) << i;
  }
  // Re-learn the holes; everything must resolve to the right entry.
  for (std::uint32_t i = 0; i < kHosts; i += 3) {
    EXPECT_TRUE(fib.learn(MacAddress::for_host(i), HostId{i}, TenantId{7}));
  }
  EXPECT_EQ(fib.size(), kHosts);
  EXPECT_EQ(fib.lookup(MacAddress::for_host(3))->tenant, TenantId{7});
  EXPECT_EQ(fib.lookup(MacAddress::for_host(4))->tenant, TenantId{0});
  EXPECT_EQ(fib.macs().size(), kHosts);
}

TEST(LFibTest, AllZeroMacIsAValidKey) {
  LFib fib;
  const MacAddress zero{0};
  EXPECT_TRUE(fib.learn(zero, HostId{42}, TenantId{1}));
  ASSERT_TRUE(fib.contains(zero));
  EXPECT_EQ(fib.lookup(zero)->host, HostId{42});
  EXPECT_TRUE(fib.forget(zero));
  EXPECT_FALSE(fib.contains(zero));
}

/// Test-side convenience over the allocation-free query_into (the
/// vector-returning GFib::query was removed from the datapath API).
std::vector<SwitchId> query_gfib(const GFib& gfib, MacAddress mac) {
  std::vector<SwitchId> hits;
  gfib.query_into(BloomHash::of(mac), hits);
  return hits;
}

/// Every GFib behaviour must hold under BOTH storage layouts (the linear
/// per-peer bank and the bit-sliced transposed bank); the deep candidate
/// equivalence property lives in sliced_bank_test.cpp.
class GFibLayoutTest : public ::testing::TestWithParam<GFibLayout> {
 protected:
  [[nodiscard]] GFib make(BloomParameters params = BloomParameters{16384,
                                                                   8}) const {
    return GFib(params, GetParam());
  }
};

TEST_P(GFibLayoutTest, QueryFindsOwningPeerOnly) {
  GFib gfib = make();
  gfib.sync_peer(SwitchId{1}, {MacAddress::for_host(10)});
  gfib.sync_peer(SwitchId{2}, {MacAddress::for_host(20)});
  gfib.sync_peer(SwitchId{3}, {MacAddress::for_host(30)});

  const auto hits = query_gfib(gfib, MacAddress::for_host(20));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], SwitchId{2});
}

TEST_P(GFibLayoutTest, UnknownMacQueriesEmpty) {
  GFib gfib = make();
  gfib.sync_peer(SwitchId{1}, {MacAddress::for_host(10)});
  EXPECT_TRUE(query_gfib(gfib, MacAddress::for_host(99)).empty());
}

TEST_P(GFibLayoutTest, ResyncReplacesPeerContents) {
  GFib gfib = make();
  gfib.sync_peer(SwitchId{1}, {MacAddress::for_host(10)});
  ASSERT_FALSE(query_gfib(gfib, MacAddress::for_host(10)).empty());
  // VM 10 moved away; peer 1 now hosts VM 11 only.
  gfib.sync_peer(SwitchId{1}, {MacAddress::for_host(11)});
  EXPECT_TRUE(query_gfib(gfib, MacAddress::for_host(10)).empty());
  EXPECT_FALSE(query_gfib(gfib, MacAddress::for_host(11)).empty());
}

TEST_P(GFibLayoutTest, ClearDropsEveryPeer) {
  GFib gfib = make(BloomParameters{});
  gfib.sync_peer(SwitchId{1}, {MacAddress::for_host(1)});
  gfib.sync_peer(SwitchId{2}, {MacAddress::for_host(2)});
  EXPECT_EQ(gfib.peer_count(), 2u);
  EXPECT_EQ(gfib.slot_of(SwitchId{2}), 1u);
  EXPECT_EQ(gfib.slot_of(SwitchId{3}), kNoSlot);
  gfib.clear();
  EXPECT_EQ(gfib.peer_count(), 0u);
  EXPECT_EQ(gfib.storage_bytes(), 0u);
}

// The simulator stores one bank per group, own columns included, and each
// member views it with its own column masked. For random groups of 1-70
// members (crossing the sliced layout's 64-slot chunk), every member's
// view must answer exactly like a private bank over its S-1 peers — the
// paper's per-switch G-FIB — on the member's own hosts (whose only true
// match is the masked column), on peers' hosts and on unknown MACs. A
// small filter makes false positives, own-column ones included, common.
TEST_P(GFibLayoutTest, GroupViewMatchesPrivatePeerBank) {
  const BloomParameters params{512, 3};
  Rng rng(41);
  std::vector<std::size_t> sizes = {1, 2, 8, 9, 63, 64, 65, 70};
  for (int i = 0; i < 12; ++i) sizes.push_back(1 + rng.next_below(70));

  std::size_t own_only_matches = 0;
  std::uint32_t next_host = 0;
  for (const std::size_t group_size : sizes) {
    // Distinct ascending member ids with gaps, 1-6 hosts each.
    std::vector<SwitchId> members;
    std::vector<std::vector<MacAddress>> hosts;
    std::uint32_t id = static_cast<std::uint32_t>(rng.next_below(4));
    for (std::size_t m = 0; m < group_size; ++m) {
      members.push_back(SwitchId{id});
      id += 1 + static_cast<std::uint32_t>(rng.next_below(3));
      hosts.emplace_back(1 + rng.next_below(6));
      for (MacAddress& mac : hosts.back()) {
        mac = MacAddress::for_host(next_host++);
      }
    }
    GFib bank(params, GetParam());
    for (std::size_t m = 0; m < group_size; ++m) {
      bank.sync_peer(members[m], hosts[m]);
    }

    std::vector<SwitchId> via_view;
    std::vector<SwitchId> via_private;
    for (std::size_t self = 0; self < group_size; ++self) {
      const GFibView view(&bank, members[self]);
      GFib private_bank(params, GetParam());
      for (std::size_t m = 0; m < group_size; ++m) {
        if (m != self) private_bank.sync_peer(members[m], hosts[m]);
      }
      ASSERT_EQ(view.peer_count(), private_bank.peer_count());
      via_view.clear();
      via_private.clear();
      view.peers_into(via_view);
      private_bank.peers_into(via_private);
      ASSERT_EQ(via_view, via_private);

      std::vector<MacAddress> queries = hosts[self];
      queries.push_back(hosts[rng.next_below(group_size)].front());
      for (int q = 0; q < 24; ++q) {
        queries.push_back(MacAddress::for_host(
            1'000'000 + static_cast<std::uint32_t>(rng.next_below(50'000))));
      }
      for (const MacAddress mac : queries) {
        const BloomHash h = BloomHash::of(mac);
        via_view.clear();
        via_private.clear();
        view.query_into(h, via_view);
        private_bank.query_into(h, via_private);
        ASSERT_EQ(via_view, via_private)
            << "group of " << group_size << ", member " << self;
        std::vector<SwitchId> all;
        bank.query_into(h, all);
        own_only_matches += all == std::vector<SwitchId>{members[self]};
      }
    }
  }
  EXPECT_GT(own_only_matches, 0u);
}

TEST_P(GFibLayoutTest, StorageMatchesLayoutModel) {
  GFib gfib = make();
  for (std::uint32_t i = 1; i <= 45; ++i) {
    gfib.sync_peer(SwitchId{i}, {MacAddress::for_host(i)});
  }
  if (GetParam() == GFibLayout::kLinear) {
    // §V-D: a 46-switch group -> 45 filters of 2048 bytes = 92,160 bytes.
    EXPECT_EQ(gfib.storage_bytes(), 92160u);
  } else {
    // Transposed and byte-packed: 16384 bit rows x ceil(45/8) = 6 bytes —
    // within ~7% of the linear layout's 92,160 B at the same group size.
    EXPECT_EQ(gfib.storage_bytes(), 16384u * 6u);
  }
}

TEST_P(GFibLayoutTest, NoFalseNegativesUnderLoad) {
  GFib gfib = make();
  std::vector<MacAddress> macs;
  for (std::uint32_t i = 0; i < 200; ++i) {
    macs.push_back(MacAddress::for_host(i));
  }
  gfib.sync_peer(SwitchId{7}, macs);
  for (const MacAddress mac : macs) {
    EXPECT_FALSE(query_gfib(gfib, mac).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, GFibLayoutTest,
                         ::testing::Values(GFibLayout::kLinear,
                                           GFibLayout::kSliced),
                         [](const auto& info) {
                           return info.param == GFibLayout::kLinear
                                      ? "Linear"
                                      : "Sliced";
                         });

}  // namespace
}  // namespace lazyctrl::core
