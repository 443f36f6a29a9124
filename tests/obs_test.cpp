// Observability subsystem tests: stats registry, trace recorder + Chrome
// export, flow-latency attribution, divergence diagnostics, and the
// log-level parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "core/network.h"
#include "harness.h"
#include "obs/flow_latency.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "scenario/runner.h"
#include "scenario/spec.h"
#include "topo/builder.h"
#include "workload/generators.h"

namespace lazyctrl {
namespace {

using benchx::JsonValue;
using obs::TraceEventType;

// ---- Registry ----

TEST(RegistryTest, CounterAndGaugeEnumeration) {
  obs::Registry reg;
  std::uint64_t punts = 42;
  double load = 0.5;
  reg.counter("controller.packet_ins", &punts);
  reg.gauge("controller.load", [&] { return load; });
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_TRUE(reg.contains("controller.packet_ins"));
  EXPECT_FALSE(reg.contains("controller.nope"));

  auto samples = reg.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  // snapshot() is sorted by name.
  EXPECT_EQ(samples[0].name, "controller.load");
  EXPECT_FALSE(samples[0].is_counter);
  EXPECT_DOUBLE_EQ(samples[0].value, 0.5);
  EXPECT_EQ(samples[1].name, "controller.packet_ins");
  EXPECT_TRUE(samples[1].is_counter);
  EXPECT_DOUBLE_EQ(samples[1].value, 42.0);

  // Snapshots read live: mutate the sources, re-snapshot.
  punts = 43;
  load = 1.25;
  samples = reg.snapshot();
  EXPECT_DOUBLE_EQ(samples[0].value, 1.25);
  EXPECT_DOUBLE_EQ(samples[1].value, 43.0);
}

TEST(RegistryTest, ReregisteringOverwrites) {
  obs::Registry reg;
  std::uint64_t a = 1, b = 2;
  reg.counter("x", &a);
  reg.counter("x", &b);
  ASSERT_EQ(reg.size(), 1u);
  EXPECT_DOUBLE_EQ(reg.snapshot()[0].value, 2.0);
}

TEST(RegistryTest, ToJsonIsValidAndFlat) {
  obs::Registry reg;
  std::uint64_t big = 9007199254740993ull;  // > 2^53: integer rendering
  reg.counter("a.big", &big);
  reg.gauge("b.pi", [] { return 3.25; });
  const std::string json = reg.to_json();

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(benchx::parse_json(json, &doc, &error)) << error;
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc.object.size(), 2u);
  EXPECT_EQ(doc.object[0].first, "a.big");
  EXPECT_EQ(doc.object[1].first, "b.pi");
  EXPECT_DOUBLE_EQ(doc.object[1].second.number, 3.25);
  // Counter rendered as an integer literal, not scientific notation.
  EXPECT_NE(json.find("\"a.big\": 9007199254740993"), std::string::npos);
}

// ---- TraceRecorder ----

// Every recorder test runs against the global instance; restore the
// disabled default so other tests (alloc_test contract) see a cold path.
struct RecorderGuard {
  ~RecorderGuard() { obs::recorder().disable(); }
};

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  RecorderGuard guard;
  obs::recorder().disable();
  obs::trace_instant(TraceEventType::kFlowPunt, 123, 1, 2);
  { obs::ScopedTimer t(TraceEventType::kGfibRebuild, 123); }
  EXPECT_FALSE(obs::tracing_enabled());
  EXPECT_EQ(obs::recorder().size(), 0u);
}

TEST(TraceRecorderTest, RingWrapKeepsNewestAndCountsDropped) {
  RecorderGuard guard;
  obs::recorder().enable(16);
  ASSERT_EQ(obs::recorder().capacity(), 16u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    obs::trace_instant(TraceEventType::kFlowPunt,
                       static_cast<SimTime>(i) * kMillisecond, i, 0);
  }
  EXPECT_EQ(obs::recorder().size(), 16u);
  EXPECT_EQ(obs::recorder().dropped(), 24u);
  // Oldest surviving event is #24, newest is #39.
  EXPECT_EQ(obs::recorder().event(0).arg_a, 24u);
  EXPECT_EQ(obs::recorder().event(15).arg_a, 39u);
}

TEST(TraceRecorderTest, PhaseTotalsSurviveRingWrap) {
  RecorderGuard guard;
  obs::recorder().enable(16);
  for (int i = 0; i < 100; ++i) {
    obs::ScopedTimer t(TraceEventType::kGfibRebuild, 0);
  }
  const auto total = obs::recorder().phase_total(TraceEventType::kGfibRebuild);
  EXPECT_EQ(total.calls, 100u);
  EXPECT_GE(total.wall_ns, 0);
}

TEST(TraceRecorderTest, ChromeExportIsValidAndSorted) {
  RecorderGuard guard;
  obs::recorder().enable(64);
  obs::trace_instant(TraceEventType::kFlowPunt, 2 * kSecond, 7, 3);
  obs::trace_instant(TraceEventType::kControllerOutageBegin, 1 * kSecond, 5,
                     0);
  {
    obs::ScopedTimer outer(TraceEventType::kReplaySpan, 0, 10, 0);
    obs::ScopedTimer inner(TraceEventType::kShardBarrierWait, 0, 4, 1);
  }

  const std::string json = obs::recorder().export_chrome_json();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(benchx::parse_json(json, &doc, &error)) << error;
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

  // Per-(pid, tid) timestamps must be monotone in file order even though
  // nested spans complete inner-before-outer.
  std::map<std::pair<double, double>, double> last;
  std::size_t timed = 0, spans = 0;
  for (const JsonValue& e : events->array) {
    const std::string ph = e.find("ph")->string;
    if (ph == "M") continue;
    ++timed;
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.find("dur")->number, 0.0);
    }
    const std::pair<double, double> track{e.find("pid")->number,
                                          e.find("tid")->number};
    const double ts = e.find("ts")->number;
    if (const auto it = last.find(track); it != last.end()) {
      EXPECT_GE(ts, it->second);
    }
    last[track] = ts;
  }
  EXPECT_EQ(timed, 4u);
  EXPECT_EQ(spans, 2u);
}

TEST(TraceRecorderTest, EmptyRingExportsValidJson) {
  RecorderGuard guard;
  obs::recorder().enable(16);
  const std::string json = obs::recorder().export_chrome_json();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(benchx::parse_json(json, &doc, &error)) << error;
}

// ---- Tracing must not perturb the simulation ----

core::Config small_lazy_config() {
  core::Config c;
  c.mode = core::ControlMode::kLazyCtrl;
  c.grouping.group_size_limit = 6;
  return c;
}

core::RunMetrics run_small_scenario() {
  Rng rng(11);
  topo::MultiTenantOptions topt;
  topt.switch_count = 12;
  topt.tenant_count = 6;
  topt.min_vms_per_tenant = 8;
  topt.max_vms_per_tenant = 16;
  auto topo = topo::build_multi_tenant(topt, rng);

  Rng wrng(12);
  workload::RealLikeOptions wopt;
  wopt.total_flows = 3000;
  wopt.horizon = 2 * kHour;
  wopt.profile = workload::DiurnalProfile::flat();
  const auto trace = workload::generate_real_like(topo, wopt, wrng);

  core::Network net(topo, small_lazy_config());
  net.bootstrap();
  net.replay(trace);
  return net.metrics();
}

TEST(TracingBitIdentityTest, MetricsIdenticalWithTracingOnAndOff) {
  RecorderGuard guard;
  obs::recorder().disable();
  const core::RunMetrics off = run_small_scenario();

  obs::recorder().enable(1 << 12);
  const core::RunMetrics on = run_small_scenario();
  EXPECT_GT(obs::recorder().size(), 0u)
      << "tracing-on run recorded no events — instrumentation missing?";

  EXPECT_TRUE(on.identical_to(off)) << on.diff_report(off);
  EXPECT_EQ(on.diff_report(off), "");
}

// ---- Divergence diagnostics ----

TEST(DiffReportTest, NamesFirstDivergingCounter) {
  core::RunMetrics a(2 * kHour), b(2 * kHour);
  a.flows_seen = 10;
  b.flows_seen = 10;
  b.controller_packet_ins = 3;
  const std::string report = a.diff_report(b);
  EXPECT_NE(report.find("controller_packet_ins"), std::string::npos)
      << report;
  EXPECT_NE(report.find("0"), std::string::npos);
  EXPECT_NE(report.find("3"), std::string::npos);
  EXPECT_FALSE(a.identical_to(b));
}

TEST(DiffReportTest, NamesDivergingSeriesBucket) {
  core::RunMetrics a(2 * kHour), b(2 * kHour);
  a.controller_requests.add(30 * kMinute, 1.0);
  b.controller_requests.add(30 * kMinute, 1.0);
  b.controller_requests.add(90 * kMinute, 2.0);
  const std::string report = a.diff_report(b);
  EXPECT_NE(report.find("controller_requests"), std::string::npos) << report;
  // Bucket index / hour label of the diverging bucket is named.
  EXPECT_NE(report.find("bucket"), std::string::npos) << report;
}

TEST(DiffReportTest, NamesDivergingRunningStats) {
  core::RunMetrics a(2 * kHour), b(2 * kHour);
  a.first_packet_latency_ms.add(1.0);
  b.first_packet_latency_ms.add(2.0);
  const std::string report = a.diff_report(b);
  EXPECT_NE(report.find("first_packet_latency_ms"), std::string::npos)
      << report;
}

TEST(DiffReportTest, IdenticalMetricsProduceEmptyReport) {
  core::RunMetrics a(2 * kHour), b(2 * kHour);
  a.flows_seen = b.flows_seen = 7;
  a.packet_latency.add(kSecond, 3.0);
  b.packet_latency.add(kSecond, 3.0);
  EXPECT_TRUE(a.identical_to(b));
  EXPECT_EQ(a.diff_report(b), "");
}

TEST(MetricsXMacroTest, FieldCountsMatchDeclaredLists) {
  // The static_assert in metrics.h enforces this at compile time; the
  // runtime check documents the expected counts so an accidental list
  // edit shows up as a test diff too.
  EXPECT_EQ(core::detail::kMetricsSeriesFields, 5u);
  EXPECT_EQ(core::detail::kMetricsCounterFields, 29u);
  EXPECT_EQ(core::detail::kMetricsStatsFields, 2u);

  std::size_t counters = 0;
  core::RunMetrics m(kHour);
  m.for_each_counter([&](const char*, std::uint64_t) { ++counters; });
  EXPECT_EQ(counters, core::detail::kMetricsCounterFields);
}

// ---- Network registry wiring ----

TEST(NetworkStatsTest, RegisterStatsExposesCoreCounters) {
  Rng rng(21);
  topo::MultiTenantOptions topt;
  topt.switch_count = 8;
  topt.tenant_count = 4;
  topt.min_vms_per_tenant = 6;
  topt.max_vms_per_tenant = 10;
  auto topo = topo::build_multi_tenant(topt, rng);

  Rng wrng(22);
  workload::RealLikeOptions wopt;
  wopt.total_flows = 1000;
  wopt.horizon = kHour;
  wopt.profile = workload::DiurnalProfile::flat();
  const auto trace = workload::generate_real_like(topo, wopt, wrng);

  core::Network net(topo, small_lazy_config());
  net.bootstrap();
  net.replay(trace);

  obs::Registry reg;
  net.register_stats(reg);
  for (const char* name :
       {"metrics.flows_seen", "metrics.controller_packet_ins",
        "controller.clib_size", "fib.gfib_total_bytes", "grouping.epoch",
        "runtime.spans", "phase.replay_span_wall_ms", "obs.trace_dropped",
        "obs.flow_records_dropped", "latency.samples",
        "latency.e2e_ns.p50", "latency.e2e_ns.p99",
        "latency.ctrl_queue_ns.p999", "latency.edge_ns.p90"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }

  double flows_seen = -1;
  for (const auto& s : reg.snapshot()) {
    if (s.name == "metrics.flows_seen") flows_seen = s.value;
  }
  EXPECT_DOUBLE_EQ(flows_seen, static_cast<double>(net.metrics().flows_seen));
}

// ---- Per-flow latency attribution ----

// Same contract as RecorderGuard: the global flow recorder must be left
// disabled so alloc_test's zero-alloc-on-disabled-path check holds.
struct FlowRecorderGuard {
  ~FlowRecorderGuard() { obs::flow_recorder().disable(); }
};

obs::FlowRecord make_flow_record(std::uint64_t id, SimDuration e2e) {
  obs::FlowRecord r;
  r.flow_id = id;
  r.start = static_cast<SimTime>(id) * kMillisecond;
  r.stages.edge = 30 * kMicrosecond;
  r.stages.e2e = e2e;
  return r;
}

TEST(FlowLatencyRecorderTest, DisabledByDefaultAndAfterGuard) {
  EXPECT_FALSE(obs::flow_attribution_enabled());
  EXPECT_EQ(obs::flow_recorder().size(), 0u);
}

TEST(FlowLatencyRecorderTest, RingWrapKeepsNewestAndCountsDropped) {
  FlowRecorderGuard guard;
  obs::flow_recorder().enable(/*sample_every_n=*/1, /*ring_capacity=*/16);
  ASSERT_EQ(obs::flow_recorder().capacity(), 16u);
  for (std::uint64_t i = 0; i < 40; ++i) {
    obs::flow_recorder().record(make_flow_record(i, kMillisecond));
  }
  EXPECT_EQ(obs::flow_recorder().size(), 16u);
  EXPECT_EQ(obs::flow_recorder().dropped(), 24u);
  // Ring keeps the newest records, oldest first...
  EXPECT_EQ(obs::flow_recorder().record_at(0).flow_id, 24u);
  EXPECT_EQ(obs::flow_recorder().record_at(15).flow_id, 39u);
  // ...but the histograms saw every flow, wrap or no wrap.
  EXPECT_EQ(obs::flow_recorder().stage_histogram(obs::FlowStage::kE2e).count(),
            40u);
}

TEST(FlowLatencyRecorderTest, SamplingIsAPureFunctionOfFlowId) {
  FlowRecorderGuard guard;
  obs::flow_recorder().enable(/*sample_every_n=*/4);
  const auto& rec = obs::flow_recorder();
  // Deterministic: the same ids are sampled on every query, and the
  // sampled fraction is near 1/4 (the splitmix64 mix spreads sequential
  // ids, so this is a statistical bound, not exact).
  std::size_t sampled = 0;
  for (std::uint64_t id = 0; id < 4000; ++id) {
    const bool s = rec.is_sampled(id);
    EXPECT_EQ(s, rec.is_sampled(id));
    sampled += s ? 1 : 0;
  }
  EXPECT_GT(sampled, 800u);
  EXPECT_LT(sampled, 1200u);

  // sample_every_n == 0: histograms only, no ring.
  obs::flow_recorder().enable(/*sample_every_n=*/0);
  EXPECT_FALSE(obs::flow_recorder().is_sampled(0));
  obs::flow_recorder().record(make_flow_record(7, kMillisecond));
  EXPECT_EQ(obs::flow_recorder().size(), 0u);
  EXPECT_EQ(obs::flow_recorder().stage_histogram(obs::FlowStage::kE2e).count(),
            1u);
}

TEST(FlowLatencyRecorderTest, PhaseFencesSliceHistograms) {
  FlowRecorderGuard guard;
  obs::flow_recorder().enable(/*sample_every_n=*/0);
  obs::flow_recorder().record(make_flow_record(1, kMillisecond));
  obs::flow_recorder().begin_phase("traffic_surge", 10 * kSecond);
  obs::flow_recorder().record(make_flow_record(2, 2 * kMillisecond));
  obs::flow_recorder().record(make_flow_record(3, 3 * kMillisecond));

  const auto& phases = obs::flow_recorder().phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].label, "start");
  EXPECT_EQ(phases[0].to, 10 * kSecond);
  EXPECT_EQ(phases[1].label, "traffic_surge");
  EXPECT_EQ(phases[1].from, 10 * kSecond);
  EXPECT_EQ(phases[1].to, -1);  // still open
  const auto e2e = static_cast<std::size_t>(obs::FlowStage::kE2e);
  EXPECT_EQ(phases[0].stages[e2e].count(), 1u);
  EXPECT_EQ(phases[1].stages[e2e].count(), 2u);
  // Totals span all phases.
  EXPECT_EQ(obs::flow_recorder().stage_histogram(obs::FlowStage::kE2e).count(),
            3u);
}

TEST(FlowSamplingBitIdentityTest, MetricsIdenticalWithSamplingOnAndOff) {
  FlowRecorderGuard guard;
  obs::flow_recorder().disable();
  const core::RunMetrics off = run_small_scenario();

  obs::flow_recorder().enable(/*sample_every_n=*/64);
  const core::RunMetrics on = run_small_scenario();
  EXPECT_GT(obs::flow_recorder().stage_histogram(obs::FlowStage::kE2e).count(),
            0u)
      << "attribution-on run recorded no flows — instrumentation missing?";
  EXPECT_GT(obs::flow_recorder().size(), 0u)
      << "1-in-64 sampling put nothing in the ring across 3000 flows";

  EXPECT_TRUE(on.identical_to(off)) << on.diff_report(off);
}

TEST(FlowLatencyAttributionTest, OutageBacklogLandsInCtrlQueue) {
  FlowRecorderGuard guard;
  obs::flow_recorder().enable(/*sample_every_n=*/1);  // record every flow

  scenario::ScenarioSpec spec;
  spec.name = "outage_attr_test";
  spec.seed = 23;
  spec.topology.switches = 12;
  spec.topology.tenants = 6;
  spec.topology.min_vms_per_tenant = 8;
  spec.topology.max_vms_per_tenant = 16;
  spec.workload.flows = 6000;
  spec.workload.horizon = 30 * kMinute;
  spec.workload.flat_profile = true;
  // OpenFlow mode: every new pair punts, so controller-path flows are
  // guaranteed to land inside the outage window. (Under LazyCtrl the
  // G-FIB shields almost everything on a fabric this small — single
  // digits of packet-ins per run — and the outage can go unobserved.)
  spec.config.mode = core::ControlMode::kOpenFlow;
  scenario::ScenarioEvent outage;
  outage.at = 10 * kMinute;
  outage.kind = scenario::EventKind::kControllerOutage;
  outage.duration = 5 * kMinute;
  spec.events.push_back(outage);

  scenario::ScenarioRunner runner(spec);
  std::string err;
  ASSERT_TRUE(runner.run(&err)) << err;

  const auto& rec = obs::flow_recorder();
  ASSERT_GT(rec.size(), 0u);

  // Conservation per record: attributed stages never exceed the measured
  // end-to-end latency (the remainder is delivery), and no stage is
  // negative.
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const auto& st = rec.record_at(i).stages;
    EXPECT_GE(st.edge, 0);
    EXPECT_GE(st.punt_rtt, 0);
    EXPECT_GE(st.ctrl_queue, 0);
    EXPECT_GE(st.install, 0);
    EXPECT_LE(st.edge + st.punt_rtt + st.ctrl_queue + st.install, st.e2e);
  }

  // The scenario-event fence opened a second phase at the outage.
  const auto& phases = rec.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[1].label, "controller_outage");
  // The event commits at a simulator fence, so the phase opens at the
  // scripted time or the first fence after it.
  EXPECT_GE(phases[1].from, 10 * kMinute);
  EXPECT_LT(phases[1].from, 11 * kMinute);

  // The headline acceptance claim: among the slow flows of the outage
  // phase (>= that phase's own e2e p99), the backlog wait dominates —
  // mean ctrl_queue far exceeds mean edge, which is a fixed ~30us.
  const auto e2e_idx = static_cast<std::size_t>(obs::FlowStage::kE2e);
  const double phase_p99 = phases[1].stages[e2e_idx].quantile(0.99);
  ASSERT_GT(phase_p99, 0.0);
  double sum_queue = 0.0, sum_edge = 0.0;
  std::size_t slow = 0;
  for (std::size_t i = 0; i < rec.size(); ++i) {
    const auto& r = rec.record_at(i);
    if (r.start < phases[1].from) continue;
    if (static_cast<double>(r.stages.e2e) < phase_p99) continue;
    sum_queue += static_cast<double>(r.stages.ctrl_queue);
    sum_edge += static_cast<double>(r.stages.edge);
    ++slow;
  }
  ASSERT_GT(slow, 0u);
  EXPECT_GT(sum_queue / static_cast<double>(slow),
            sum_edge / static_cast<double>(slow))
      << "outage-phase p99 flows not dominated by controller queueing";
}

// ---- A flow's id is its position in the trace ----

// 3,000 flows over 20 minutes with a snapshot fence at 8 minutes, so the
// replay cuts many spans and a resume starts mid trace.
scenario::ScenarioSpec flow_id_spec(unsigned shards) {
  scenario::ScenarioSpec spec;
  spec.name = "flow_id_test";
  spec.seed = 31;
  spec.topology.switches = 12;
  spec.topology.tenants = 6;
  spec.topology.min_vms_per_tenant = 8;
  spec.topology.max_vms_per_tenant = 16;
  spec.workload.flows = 3000;
  spec.workload.horizon = 20 * kMinute;
  spec.workload.flat_profile = true;
  spec.config.runtime.num_shards = shards;
  scenario::ScenarioEvent fence;
  fence.at = 8 * kMinute;
  fence.kind = scenario::EventKind::kCheckpoint;
  spec.events.push_back(fence);
  return spec;
}

/// Records every flow into a ring that holds them all.
void record_every_flow(std::size_t flows) {
  obs::flow_recorder().enable(/*sample_every_n=*/1, /*ring_capacity=*/flows);
}

/// The ring holds the last flows of an `n`-flow trace, one record per
/// flow in trace order, and each names its position.
void expect_records_name_positions(std::size_t n) {
  const auto& rec = obs::flow_recorder();
  ASSERT_EQ(rec.dropped(), 0u);
  ASSERT_GT(rec.size(), 0u);
  ASSERT_LE(rec.size(), n);
  const std::size_t first = n - rec.size();
  for (std::size_t j = 0; j < rec.size(); ++j) {
    ASSERT_EQ(rec.record_at(j).flow_id, first + j) << "record " << j;
  }
}

TEST(FlowIdTest, ReplayRecordsEachFlowUnderItsTracePosition) {
  FlowRecorderGuard guard;
  for (const unsigned shards : {1u, 2u}) {
    SCOPED_TRACE(testing::Message() << shards << " shard(s)");
    scenario::ScenarioRunner runner(flow_id_spec(shards));
    record_every_flow(3000);
    std::string err;
    ASSERT_TRUE(runner.run(&err)) << err;
    const std::size_t n = runner.trace().flows.size();
    ASSERT_EQ(n, 3000u);
    EXPECT_EQ(obs::flow_recorder().size(), n);
    expect_records_name_positions(n);

    // A resume replays the rest of the same trace: its first flow keeps
    // its position, not 0.
    ASSERT_EQ(runner.snapshots().size(), 1u);
    auto resumed =
        scenario::ScenarioRunner::restore(runner.snapshots()[0].bytes, &err);
    ASSERT_NE(resumed, nullptr) << err;
    record_every_flow(n);
    ASSERT_TRUE(resumed->finish(&err)) << err;
    EXPECT_LT(obs::flow_recorder().size(), n);
    expect_records_name_positions(n);
  }
}

// ---- Log-level parsing ----

TEST(LogLevelTest, ParseAcceptsNamesAndDigits) {
  LogLevel level = LogLevel::kWarn;
  EXPECT_TRUE(parse_log_level("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(parse_log_level("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("3", &level));
  EXPECT_EQ(level, LogLevel::kError);

  level = LogLevel::kInfo;
  EXPECT_FALSE(parse_log_level("verbose", &level));
  EXPECT_FALSE(parse_log_level("", &level));
  EXPECT_EQ(level, LogLevel::kInfo);  // untouched on failure
}

}  // namespace
}  // namespace lazyctrl
