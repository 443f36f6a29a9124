// Observability overhead benchmark: what does tracing cost the datapath?
//
// Four replay legs per repetition on one identical workload (same fixture
// as bench_micro_datapath's replay), interleaved so drift hits all
// legs equally:
//
//   1. tracing off  — the shipping default: one relaxed atomic load per
//                     instrumentation site;
//   2. tracing on   — ring recording live (64Ki-event ring);
//   3. tracing off  — A/A control: the off/off spread is the noise floor
//                     any off/on delta must be read against;
//   4. sampling on  — per-flow latency attribution live (stage histograms
//                     every flow + 1-in-64 flight-recorder ring), tracing
//                     off, so the two instrumentation layers are priced
//                     separately.
//
// The acceptance bar from the telemetry PR is that leg 1 costs <= 1% vs
// the pre-PR build; since the disabled path IS the default path, that is
// checked by diffing BENCH_micro_datapath.json medians across the PR.
// What this bench pins forever is the *enabled* cost and the RSS the ring
// adds, plus an always-current off-throughput series future PRs can diff.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "common/rng.h"
#include "core/network.h"
#include "harness.h"
#include "obs/flow_latency.h"
#include "obs/trace.h"
#include "workload/intensity.h"

using namespace lazyctrl;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Resident set size from /proc/self/status, in bytes (0 if unreadable —
/// e.g. a non-Linux host; the metric then reports 0 rather than failing).
double rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%lf", &kb);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024.0;
}

struct Setup {
  topo::Topology topo;
  workload::Trace trace;
  graph::WeightedGraph history;

  Setup()
      : topo(make_topo()),
        trace(make_trace(topo)),
        history(workload::build_intensity_graph(trace, topo, 0, kHour)) {}

  static topo::Topology make_topo() {
    Rng rng(901);
    topo::MultiTenantOptions opt;
    opt.switch_count = 96;
    opt.tenant_count = 40;
    opt.min_vms_per_tenant = 20;
    opt.max_vms_per_tenant = 60;
    opt.vms_per_switch = 24;
    return topo::build_multi_tenant(opt, rng);
  }
  static workload::Trace make_trace(const topo::Topology& topo) {
    Rng rng(902);
    workload::RealLikeOptions opt;
    opt.total_flows =
        static_cast<std::size_t>(200000 * benchx::bench_scale());
    return workload::generate_real_like(topo, opt, rng);
  }
};

/// One leg = kReplaysPerLeg full replays on fresh networks (bootstrap
/// untimed); summing several replays lengthens the timed region enough
/// that a single scheduler hiccup cannot dominate a leg. Returns flows/s.
constexpr int kReplaysPerLeg = 3;

double run_leg(const Setup& s) {
  double total_dt = 0.0;
  double total_flows = 0.0;
  for (int i = 0; i < kReplaysPerLeg; ++i) {
    core::Config cfg;
    cfg.mode = core::ControlMode::kLazyCtrl;
    cfg.grouping.group_size_limit = 18;
    core::Network net(s.topo, cfg);
    net.bootstrap(s.history);

    const auto t0 = std::chrono::steady_clock::now();
    net.replay(s.trace);
    total_dt += seconds_since(t0);
    total_flows += static_cast<double>(net.metrics().flows_seen);
  }
  return total_flows / total_dt;
}

int body(benchx::BenchReport& report) {
  static const Setup setup;  // built once, outside every timed region

  obs::recorder().disable();
  const double rss_before = rss_bytes();
  const double off1 = run_leg(setup);

  obs::recorder().enable(obs::TraceRecorder::kDefaultCapacity);
  obs::recorder().clear();
  const double on = run_leg(setup);
  const std::size_t events = obs::recorder().size();
  const auto dropped = obs::recorder().dropped();
  const double ring_bytes = static_cast<double>(
      obs::recorder().capacity() * sizeof(obs::TraceEvent));
  const double rss_after = rss_bytes();
  obs::recorder().disable();

  const double off2 = run_leg(setup);

  obs::flow_recorder().enable(/*sample_every_n=*/64);
  const double sampling = run_leg(setup);
  const std::size_t flow_records = obs::flow_recorder().size();
  obs::flow_recorder().disable();

  // Overheads vs the faster off leg; the off/off spread is the noise
  // floor. Clamped at 0 — a negative "overhead" is just noise.
  const double off_best = std::max(off1, off2);
  const double on_overhead_pct =
      std::max(0.0, (1.0 - on / off_best) * 100.0);
  const double off_spread_pct =
      std::max(0.0, (1.0 - std::min(off1, off2) / off_best) * 100.0);
  const double sampling_overhead_pct =
      std::max(0.0, (1.0 - sampling / off_best) * 100.0);

  std::printf("replay throughput (%zu flows, %zu switches):\n",
              setup.trace.flow_count(), setup.topo.switch_count());
  std::printf("  %-26s %12.0f flows/s\n", "tracing off (leg 1)", off1);
  std::printf("  %-26s %12.0f flows/s   (%zu events, %llu dropped)\n",
              "tracing on", on, events,
              static_cast<unsigned long long>(dropped));
  std::printf("  %-26s %12.0f flows/s\n", "tracing off (leg 2)", off2);
  std::printf("  %-26s %12.0f flows/s   (%zu flow records)\n",
              "flow sampling on (1/64)", sampling, flow_records);
  std::printf("  tracing overhead %.2f%% | sampling overhead %.2f%% | "
              "off/off noise floor %.2f%% | ring %.1f KiB | RSS delta "
              "%.0f KiB\n",
              on_overhead_pct, sampling_overhead_pct, off_spread_pct,
              ring_bytes / 1024.0, (rss_after - rss_before) / 1024.0);

  report.throughput("replay_flows_per_sec_tracing_off",
                    std::min(off1, off2));
  report.throughput("replay_flows_per_sec_tracing_on", on);
  report.metric("tracing_on_overhead_pct", on_overhead_pct, "pct");
  // A/A control: the disabled path is the default path, so this is pure
  // run-to-run noise — the scale against which overhead deltas are read.
  report.metric("tracing_off_overhead_pct", off_spread_pct, "pct");
  report.memory_bytes("rss_delta_bytes", rss_after - rss_before);
  report.memory_bytes("trace_ring_bytes", ring_bytes);
  report.metric("trace_events_recorded", static_cast<double>(events),
                "events");
  report.metric("trace_events_dropped", static_cast<double>(dropped),
                "events");
  report.throughput("replay_flows_per_sec_sampling_on", sampling);
  report.metric("sampling_on_overhead_pct", sampling_overhead_pct, "pct");
  report.metric("flow_records_recorded", static_cast<double>(flow_records),
                "records");
  return 0;
}

}  // namespace

int main() {
  benchx::HarnessOptions opts;
  opts.repetitions = 5;
  opts.warmup = 1;
  return benchx::run_benchmark(
      "obs_overhead",
      "Observability overhead — tracing / flow sampling disabled vs enabled",
      "interleaved off/on/off/sampling replay legs on the micro_datapath "
      "workload; the off/off spread is the noise floor for reading the "
      "enabled-leg deltas. The telemetry PR's <= 1% disabled-path bar is "
      "checked by diffing BENCH_micro_datapath.json across the PR",
      opts, body);
}
