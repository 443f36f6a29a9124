// Tests for the Bloom filter and the per-peer BloomBank (G-FIB storage).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "bloom/bloom_bank.h"
#include "bloom/bloom_filter.h"
#include "common/rng.h"

namespace lazyctrl {
namespace {

TEST(BloomFilterTest, EmptyContainsNothing) {
  BloomFilter f;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_FALSE(f.may_contain(k));
  }
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter f(BloomParameters{4096, 4});
  for (std::uint64_t k = 0; k < 200; ++k) f.insert(k * 7919);
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE(f.may_contain(k * 7919)) << "missing key " << k;
  }
}

TEST(BloomFilterTest, MacOverloadAgreesWithRaw) {
  BloomFilter f;
  const MacAddress mac = MacAddress::for_host(77);
  f.insert(mac);
  EXPECT_TRUE(f.may_contain(mac));
  EXPECT_TRUE(f.may_contain(mac.bits()));
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter f;
  f.insert(42);
  ASSERT_TRUE(f.may_contain(42));
  f.clear();
  EXPECT_FALSE(f.may_contain(42));
  EXPECT_EQ(f.inserted_count(), 0u);
  EXPECT_EQ(f.popcount(), 0u);
}

TEST(BloomFilterTest, BitCountRoundsUpTo64) {
  BloomFilter f(BloomParameters{100, 3});
  EXPECT_EQ(f.bit_count() % 64, 0u);
  EXPECT_GE(f.bit_count(), 100u);
}

TEST(BloomFilterTest, StorageBytesMatchesBits) {
  BloomFilter f(BloomParameters{16384, 8});
  EXPECT_EQ(f.storage_bytes(), 16384u / 8);
}

TEST(BloomFilterTest, MergeUnionsMembership) {
  BloomParameters p{2048, 4};
  BloomFilter a(p), b(p);
  a.insert(1);
  b.insert(2);
  ASSERT_TRUE(a.merge(b));
  EXPECT_TRUE(a.may_contain(1));
  EXPECT_TRUE(a.may_contain(2));
}

TEST(BloomFilterTest, MergeRejectsGeometryMismatch) {
  BloomFilter a(BloomParameters{1024, 4});
  BloomFilter b(BloomParameters{2048, 4});
  EXPECT_FALSE(a.merge(b));
  BloomFilter c(BloomParameters{1024, 5});
  EXPECT_FALSE(a.merge(c));
}

TEST(BloomFilterTest, EqualityIsContentBased) {
  BloomParameters p{1024, 4};
  BloomFilter a(p), b(p);
  a.insert(10);
  b.insert(10);
  EXPECT_TRUE(a == b);
  b.insert(11);
  EXPECT_FALSE(a == b);
}

TEST(BloomParametersTest, ForTargetMeetsTextbookSizing) {
  // n = 1000, p = 1% -> m ~ 9585 bits, k ~ 7.
  const BloomParameters p = BloomParameters::for_target(1000, 0.01);
  EXPECT_NEAR(static_cast<double>(p.bits), 9585.0, 50.0);
  EXPECT_EQ(p.hash_count, 7u);
}

TEST(BloomParametersTest, DegenerateInputsClamped) {
  const BloomParameters p = BloomParameters::for_target(0, 2.0);
  EXPECT_GE(p.bits, 64u);
  EXPECT_GE(p.hash_count, 1u);
}

// Property sweep: observed FP rate stays within ~3x of the analytic bound
// across filter geometries and loads.
class BloomFpRateTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 std::size_t>> {};

TEST_P(BloomFpRateTest, FalsePositiveRateNearPrediction) {
  const auto [bits, hashes, items] = GetParam();
  BloomFilter f(BloomParameters{bits, hashes});
  Rng rng(bits * 31 + hashes * 7 + items);
  std::vector<std::uint64_t> inserted;
  for (std::size_t i = 0; i < items; ++i) {
    const std::uint64_t k = rng.next_u64();
    inserted.push_back(k);
    f.insert(k);
  }
  // Probe keys disjoint from the inserted set with overwhelming probability.
  const int probes = 20000;
  int fp = 0;
  for (int i = 0; i < probes; ++i) {
    if (f.may_contain(rng.next_u64())) ++fp;
  }
  const double observed = static_cast<double>(fp) / probes;
  const double predicted = f.expected_fp_rate();
  EXPECT_LE(observed, predicted * 3 + 0.003)
      << "bits=" << bits << " k=" << hashes << " n=" << items;
  // Sanity: all inserted keys still present.
  for (std::uint64_t k : inserted) EXPECT_TRUE(f.may_contain(k));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomFpRateTest,
    ::testing::Values(std::make_tuple(1024, 4, 50),
                      std::make_tuple(4096, 4, 200),
                      std::make_tuple(16384, 8, 24),     // paper's G-FIB size
                      std::make_tuple(16384, 8, 200),
                      std::make_tuple(8192, 2, 400),
                      std::make_tuple(65536, 6, 2000)));


/// Test-side convenience over the allocation-free query_into (the
/// vector-returning BloomBank::query was removed from the datapath API).
std::vector<SwitchId> query_bank(const BloomBank& bank, MacAddress mac) {
  std::vector<SwitchId> hits;
  bank.query_into(BloomHash::of(mac), hits);
  return hits;
}

TEST(BloomBankTest, QueryFindsOwningPeer) {
  BloomBank bank(BloomParameters{4096, 4});
  const MacAddress mac = MacAddress::for_host(5);
  bank.build_filter(SwitchId{1}, {mac});
  bank.build_filter(SwitchId{2}, {MacAddress::for_host(6)});
  const auto hits = query_bank(bank, mac);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front(), SwitchId{1});
}

TEST(BloomBankTest, QueryReturnsSortedSwitchIds) {
  BloomBank bank(BloomParameters{4096, 4});
  const MacAddress mac = MacAddress::for_host(9);
  bank.build_filter(SwitchId{5}, {mac});
  bank.build_filter(SwitchId{2}, {mac});
  bank.build_filter(SwitchId{9}, {mac});
  const auto hits = query_bank(bank, mac);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
}

TEST(BloomBankTest, QuerySkipsTheGivenSlot) {
  BloomBank bank;
  const MacAddress mac = MacAddress::for_host(1);
  bank.build_filter(SwitchId{7}, {mac});
  bank.build_filter(SwitchId{3}, {mac});
  ASSERT_EQ(bank.slot_of(SwitchId{7}), 1u);
  EXPECT_EQ(bank.slot_of(SwitchId{4}), kNoSlot);
  std::vector<SwitchId> hits;
  bank.query_into(BloomHash::of(mac), hits, bank.slot_of(SwitchId{7}));
  EXPECT_EQ(hits, std::vector<SwitchId>{SwitchId{3}});
}

TEST(BloomBankTest, StorageGrowsLinearlyWithPeers) {
  BloomBank bank(BloomParameters{16384, 8});
  for (std::uint32_t i = 0; i < 45; ++i) {
    bank.build_filter(SwitchId{i}, {MacAddress::for_host(i)});
  }
  // 45 peers x 2048 bytes each = 92,160 bytes: the paper's §V-D example.
  EXPECT_EQ(bank.storage_bytes(), 45u * 2048u);
}

TEST(BloomBankTest, EmptyBankQueriesEmpty) {
  BloomBank bank;
  EXPECT_TRUE(query_bank(bank, MacAddress::for_host(0)).empty());
  EXPECT_EQ(bank.storage_bytes(), 0u);
}

}  // namespace
}  // namespace lazyctrl
