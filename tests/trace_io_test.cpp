// Tests for trace CSV (de)serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "topo/builder.h"
#include "workload/generators.h"
#include "workload/trace_io.h"

namespace lazyctrl::workload {
namespace {

Trace sample_trace() {
  Trace t;
  t.horizon = 10 * kSecond;
  t.flows.push_back(Flow{HostId{1}, HostId{2}, 5 * kSecond, 3, 700});
  t.flows.push_back(Flow{HostId{3}, HostId{1}, 1 * kSecond, 1, 64});
  finalize_trace(t);
  return t;
}

TEST(TraceIoTest, RoundTripPreservesFlows) {
  const Trace original = sample_trace();
  std::stringstream ss;
  ASSERT_TRUE(save_trace_csv(original, ss));
  const auto loaded = load_trace_csv(ss);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->flow_count(), original.flow_count());
  for (std::size_t i = 0; i < original.flows.size(); ++i) {
    EXPECT_EQ(loaded->flows[i].src, original.flows[i].src);
    EXPECT_EQ(loaded->flows[i].dst, original.flows[i].dst);
    EXPECT_EQ(loaded->flows[i].start, original.flows[i].start);
    EXPECT_EQ(loaded->flows[i].packets, original.flows[i].packets);
    EXPECT_EQ(loaded->flows[i].avg_packet_bytes,
              original.flows[i].avg_packet_bytes);
  }
}

TEST(TraceIoTest, RoundTripOfGeneratedTrace) {
  Rng rng(3);
  topo::MultiTenantOptions topt;
  topt.switch_count = 8;
  topt.tenant_count = 4;
  const auto topo = topo::build_multi_tenant(topt, rng);
  RealLikeOptions opt;
  opt.total_flows = 2000;
  const Trace original = generate_real_like(topo, opt, rng);

  std::stringstream ss;
  ASSERT_TRUE(save_trace_csv(original, ss));
  const auto loaded = load_trace_csv(ss, original.horizon);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->flow_count(), original.flow_count());
  EXPECT_EQ(loaded->horizon, original.horizon);
}

TEST(TraceIoTest, HorizonDerivedFromLastFlow) {
  const Trace t = sample_trace();
  std::stringstream ss;
  save_trace_csv(t, ss);
  const auto loaded = load_trace_csv(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->horizon, 5 * kSecond + kSecond);
}

TEST(TraceIoTest, EmptyTraceRoundTrips) {
  std::stringstream ss;
  ASSERT_TRUE(save_trace_csv(Trace{}, ss));
  const auto loaded = load_trace_csv(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->flow_count(), 0u);
}

TEST(TraceIoTest, RejectsBadHeader) {
  std::stringstream ss("nonsense\n1,2,3,4,5\n");
  std::string error;
  EXPECT_FALSE(load_trace_csv(ss, 0, &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos);
}

TEST(TraceIoTest, RejectsMalformedRecord) {
  std::stringstream ss(
      "src_host,dst_host,start_ns,packets,avg_packet_bytes\n1,2,xyz,4,5\n");
  std::string error;
  EXPECT_FALSE(load_trace_csv(ss, 0, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos);
}

TEST(TraceIoTest, RejectsSelfFlow) {
  std::stringstream ss(
      "src_host,dst_host,start_ns,packets,avg_packet_bytes\n7,7,0,1,64\n");
  EXPECT_FALSE(load_trace_csv(ss).has_value());
}

TEST(TraceIoTest, RejectsZeroPackets) {
  std::stringstream ss(
      "src_host,dst_host,start_ns,packets,avg_packet_bytes\n1,2,0,0,64\n");
  EXPECT_FALSE(load_trace_csv(ss).has_value());
}

TEST(TraceIoTest, RejectsTrailingGarbage) {
  std::stringstream ss(
      "src_host,dst_host,start_ns,packets,avg_packet_bytes\n1,2,0,1,64,99\n");
  EXPECT_FALSE(load_trace_csv(ss).has_value());
}

TEST(TraceIoTest, SkipsBlankLines) {
  std::stringstream ss(
      "src_host,dst_host,start_ns,packets,avg_packet_bytes\n\n1,2,0,1,64\n\n");
  const auto loaded = load_trace_csv(ss);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->flow_count(), 1u);
}

TEST(TraceIoTest, FileRoundTrip) {
  const Trace t = sample_trace();
  const std::string path = "/tmp/lazyctrl_trace_io_test.csv";
  ASSERT_TRUE(save_trace_csv(t, path));
  const auto loaded = load_trace_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->flow_count(), t.flow_count());
}

TEST(TraceIoTest, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(load_trace_csv("/nonexistent/path.csv", 0, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace lazyctrl::workload
