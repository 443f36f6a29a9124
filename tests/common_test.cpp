// Tests for the common substrate: ids, addresses, rng, stats.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/ids.h"
#include "common/mac.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time.h"

namespace lazyctrl {
namespace {

TEST(StrongIdTest, DefaultIsInvalid) {
  SwitchId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, SwitchId::invalid());
}

TEST(StrongIdTest, ValueRoundTrip) {
  SwitchId id{42};
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(StrongIdTest, Ordering) {
  EXPECT_LT(SwitchId{1}, SwitchId{2});
  EXPECT_EQ(SwitchId{7}, SwitchId{7});
  EXPECT_NE(SwitchId{7}, SwitchId{8});
}

TEST(StrongIdTest, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<SwitchId, HostId>);
  static_assert(!std::is_same_v<GroupId, TenantId>);
}

TEST(StrongIdTest, Hashable) {
  std::unordered_set<SwitchId> set;
  set.insert(SwitchId{1});
  set.insert(SwitchId{1});
  set.insert(SwitchId{2});
  EXPECT_EQ(set.size(), 2u);
}

TEST(MacAddressTest, HostDerivationIsUniquePerIndex) {
  std::set<std::uint64_t> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    seen.insert(MacAddress::for_host(i).bits());
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(MacAddressTest, HostIndexInvertsForHost) {
  for (const std::uint32_t i :
       {0u, 1u, 255u, 256u, 65'535u, 65'536u, 0x7FFF'FFFFu, 0xFFFF'FFFFu}) {
    const MacAddress mac = MacAddress::for_host(i);
    EXPECT_EQ(mac.host_index(), i) << mac.to_string();
  }
  EXPECT_EQ(MacAddress::for_host(0).to_string(), "02:00:00:00:00:00");
  EXPECT_EQ(MacAddress::for_host(0xFFFF'FFFF).to_string(),
            "02:00:ff:ff:ff:ff");
}

TEST(MacAddressTest, HostIndexRejectsMacsOutsideTheHostScheme) {
  // Switch management MACs (first octet 0x06), the broadcast MAC, and any
  // MAC whose bits above 32 are not exactly 0x0200.
  EXPECT_FALSE(MacAddress{0x0600'0000'0000ULL}.host_index().has_value());
  EXPECT_FALSE(MacAddress{0x0600'0000'0007ULL}.host_index().has_value());
  EXPECT_FALSE(MacAddress::broadcast().host_index().has_value());
  EXPECT_FALSE(MacAddress{}.host_index().has_value());
  EXPECT_FALSE(MacAddress{0xdeadbeef}.host_index().has_value());
  EXPECT_FALSE(MacAddress{0x0201'0000'0000ULL}.host_index().has_value());
  EXPECT_FALSE(MacAddress{0x0300'0000'0001ULL}.host_index().has_value());
}

TEST(MacAddressTest, BroadcastIsRecognised) {
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddress::for_host(3).is_broadcast());
}

TEST(MacAddressTest, ToStringFormat) {
  EXPECT_EQ(MacAddress{0x0011'2233'4455ULL}.to_string(), "00:11:22:33:44:55");
  EXPECT_EQ(MacAddress::broadcast().to_string(), "ff:ff:ff:ff:ff:ff");
}

TEST(MacAddressTest, MaskedTo48Bits) {
  MacAddress m{~0ULL};
  EXPECT_EQ(m.bits(), (std::uint64_t{1} << 48) - 1);
}

TEST(IpAddressTest, SwitchDerivationAndFormat) {
  EXPECT_EQ(IpAddress::for_switch(0).to_string(), "10.0.0.0");
  EXPECT_EQ(IpAddress::for_switch(258).to_string(), "10.0.1.2");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBetweenInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.next_between(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(31);
  Rng fork1 = a.fork();
  Rng b(31);
  Rng fork2 = b.fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fork1.next_u64(), fork2.next_u64());
}

TEST(RngTest, StreamsAreDeterministicAndDecorrelated) {
  // Same (master seed, stream id) -> same sequence.
  Rng a = Rng::stream(99, 3);
  Rng b = Rng::stream(99, 3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());

  // Distinct stream ids diverge immediately, and deriving a stream does
  // not perturb any other stream (unlike fork(), which advances the
  // parent) — the property letting N shards draw from one Config.seed.
  Rng s0 = Rng::stream(99, 0);
  Rng s1 = Rng::stream(99, 1);
  EXPECT_NE(s0.next_u64(), s1.next_u64());
  Rng s0_again = Rng::stream(99, 0);
  Rng s0_fresh = Rng::stream(99, 0);
  (void)Rng::stream(99, 7);  // deriving other streams changes nothing
  EXPECT_EQ(s0_again.next_u64(), s0_fresh.next_u64());
}

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, MeanMinMax) {
  RunningStats s;
  for (double x : {3.0, 1.0, 4.0, 1.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.8);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.sum(), 14.0);
}

TEST(RunningStatsTest, VarianceMatchesTextbook) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(TimeBucketSeriesTest, BucketPlacement) {
  TimeBucketSeries s(kHour, 4 * kHour);
  s.add(30 * kMinute, 2.0);
  s.add(90 * kMinute, 4.0);
  s.add(90 * kMinute, 6.0);
  EXPECT_EQ(s.bucket_count(), 4u);
  EXPECT_DOUBLE_EQ(s.bucket_sum(0), 2.0);
  EXPECT_DOUBLE_EQ(s.bucket_mean(1), 5.0);
  EXPECT_EQ(s.bucket_events(1), 2u);
  EXPECT_DOUBLE_EQ(s.bucket_sum(2), 0.0);
}

TEST(TimeBucketSeriesTest, OutOfRangeClampsToLastBucket) {
  TimeBucketSeries s(kHour, 2 * kHour);
  s.add(10 * kHour, 1.0);
  s.add(-5, 1.0);
  EXPECT_EQ(s.bucket_events(1), 1u);
  EXPECT_EQ(s.bucket_events(0), 1u);
}

TEST(TimeBucketSeriesTest, AddNAggregates) {
  TimeBucketSeries s(kHour, 2 * kHour);
  s.add_n(10 * kMinute, 3.0, 5);
  EXPECT_EQ(s.bucket_events(0), 5u);
  EXPECT_DOUBLE_EQ(s.bucket_sum(0), 15.0);
  EXPECT_DOUBLE_EQ(s.bucket_mean(0), 3.0);
}

TEST(TimeBucketSeriesTest, RatePerSecond) {
  TimeBucketSeries s(kSecond * 10, kSecond * 10);
  for (int i = 0; i < 50; ++i) s.add_event(kSecond * 5);
  EXPECT_DOUBLE_EQ(s.bucket_rate_per_sec(0), 5.0);
}

TEST(TimeBucketSeriesTest, HourLabels) {
  TimeBucketSeries s(2 * kHour, 24 * kHour);
  EXPECT_EQ(s.bucket_label_hours(0), "0-2");
  EXPECT_EQ(s.bucket_label_hours(11), "22-24");
}

TEST(QuantileSketchTest, Quantiles) {
  QuantileSketch q;
  for (int i = 1; i <= 100; ++i) q.add(i);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);
  EXPECT_NEAR(q.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(q.mean(), 50.5, 1e-9);
}

TEST(QuantileSketchTest, EmptyIsZero) {
  QuantileSketch q;
  EXPECT_EQ(q.quantile(0.5), 0.0);
  EXPECT_EQ(q.mean(), 0.0);
}

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(kSecond), 1000.0);
  EXPECT_EQ(kHour, 3600 * kSecond);
}

TEST(TimeBucketSeriesTest, BucketLabelHoursBoundaries) {
  TimeBucketSeries s(2 * kHour, 24 * kHour);
  ASSERT_EQ(s.bucket_count(), 12u);
  EXPECT_EQ(s.bucket_label_hours(0), "0-2");
  EXPECT_EQ(s.bucket_label_hours(1), "2-4");
  EXPECT_EQ(s.bucket_label_hours(11), "22-24");

  // A horizon that is not a multiple of the width rounds the bucket count
  // up; the final label still spans a full width.
  TimeBucketSeries ragged(2 * kHour, 5 * kHour);
  ASSERT_EQ(ragged.bucket_count(), 3u);
  EXPECT_EQ(ragged.bucket_label_hours(2), "4-6");
}

TEST(TimeBucketSeriesTest, ZeroEventBucketRateAndMean) {
  TimeBucketSeries s(kHour, 4 * kHour);
  s.add(30 * kMinute, 2.0);
  EXPECT_EQ(s.bucket_events(2), 0u);
  EXPECT_DOUBLE_EQ(s.bucket_mean(2), 0.0);
  EXPECT_DOUBLE_EQ(s.bucket_rate_per_sec(2), 0.0);
  EXPECT_DOUBLE_EQ(s.bucket_sum(2), 0.0);
}

TEST(TimeBucketSeriesTest, PastHorizonClampsIntoLastBucket) {
  TimeBucketSeries s(kHour, 4 * kHour);
  s.add(100 * kHour, 7.0);
  s.add(-kMinute, 1.0);  // negative times clamp into the first bucket
  EXPECT_EQ(s.bucket_events(3), 1u);
  EXPECT_DOUBLE_EQ(s.bucket_sum(3), 7.0);
  EXPECT_EQ(s.bucket_events(0), 1u);
}

}  // namespace
}  // namespace lazyctrl
