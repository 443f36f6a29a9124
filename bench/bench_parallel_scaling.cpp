// Sharded parallel replay scaling (src/runtime extension).
//
// Replays one heavy-load burst workload — a dense minute of traffic, the
// "millions of users" regime where event density is what caps replay —
// through:
//
//   * baseline       — single-threaded Network::replay (1 shard);
//   * deterministic  — the sharded runtime at 8 shards, which must be
//     BIT-IDENTICAL to the baseline (checked here, exit 1 on any
//     divergence — this gate is core-count-independent).
//
// Wall-clock speedup is recorded, not gated: it needs as many hardware
// threads as shards to manifest, and the committed JSON records
// `cpu_cores` precisely so readers can interpret the medians. Setup
// (topology, trace, history, bootstrap) happens outside every timed
// region; each timed region covers exactly one replay.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.h"
#include "core/network.h"
#include "harness.h"
#include "runtime/shard_plan.h"
#include "workload/intensity.h"

using namespace lazyctrl;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Setup {
  topo::Topology topo;
  workload::Trace trace;
  graph::WeightedGraph history;

  Setup()
      : topo(make_topo()),
        trace(make_trace(topo)),
        history(workload::build_intensity_graph(trace, topo, 0,
                                                30 * kSecond)) {}

  static topo::Topology make_topo() {
    Rng rng(911);
    topo::MultiTenantOptions opt;
    opt.switch_count = 96;
    opt.tenant_count = 40;
    opt.min_vms_per_tenant = 20;
    opt.max_vms_per_tenant = 60;
    opt.vms_per_switch = 24;
    return topo::build_multi_tenant(opt, rng);
  }
  static workload::Trace make_trace(const topo::Topology& topo) {
    Rng rng(912);
    workload::RealLikeOptions opt;
    // A dense 60-second burst: ~33k new flows per simulated second at
    // full scale, so a span between two control events hits the span cap
    // and barrier cost amortizes away.
    opt.total_flows =
        static_cast<std::size_t>(2e6 * benchx::bench_scale());
    opt.horizon = 60 * kSecond;
    opt.profile = workload::DiurnalProfile::flat();
    return workload::generate_real_like(topo, opt, rng);
  }
};

core::Config scaling_config(std::size_t shards) {
  core::Config cfg;
  cfg.mode = core::ControlMode::kLazyCtrl;
  // 96 switches / limit 12 -> 8 groups, so 8 shards are actually usable.
  cfg.grouping.group_size_limit = 12;
  cfg.runtime.num_shards = shards;
  return cfg;
}

struct RunResult {
  double seconds = 0;
  double flows_per_sec = 0;
  core::RunMetrics metrics{60 * kSecond};
  core::Network::RuntimeObsStats stats;
  std::size_t shard_count = 1;
};

RunResult run_one(const Setup& s, std::size_t shards) {
  core::Network net(s.topo, scaling_config(shards));
  net.bootstrap(s.history);  // untimed

  RunResult r;
  // The effective shard count: the runtime clamps to the group count.
  r.shard_count = runtime::ShardPlan(net.topology().switch_count(),
                                     net.grouping(), shards)
                      .shard_count();
  const auto t0 = std::chrono::steady_clock::now();
  net.replay(s.trace);
  r.seconds = seconds_since(t0);
  r.stats = net.runtime_obs();
  r.flows_per_sec =
      static_cast<double>(net.metrics().flows_seen) / r.seconds;
  r.metrics = net.metrics();
  return r;
}

int body(benchx::BenchReport& report) {
  static const Setup setup;  // built once, outside every timed region
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("parallel replay scaling (%zu flows, %zu switches, %u cores)\n",
              setup.trace.flow_count(), setup.topo.switch_count(), cores);

  const RunResult baseline = run_one(setup, 1);
  std::printf("  %-26s %9.3fs %12.0f flows/s\n", "baseline (1 thread)",
              baseline.seconds, baseline.flows_per_sec);

  int status = 0;

  // The bit-identity acceptance gate (always on, core-count-independent).
  const RunResult det = run_one(setup, 8);
  // One canonical comparator (RunMetrics::identical_to) covers EVERY
  // field — counters, all time-series buckets, all latency moments.
  const bool identical = baseline.metrics.identical_to(det.metrics);
  std::printf("  %-26s %9.3fs %12.0f flows/s  (%zu shards, %llu spans, "
              "%llu re-decided, bit-identical: %s)\n",
              "deterministic @8", det.seconds, det.flows_per_sec,
              det.shard_count,
              static_cast<unsigned long long>(det.stats.spans),
              static_cast<unsigned long long>(det.stats.redecided_flows),
              identical ? "yes" : "NO");
  if (!identical) {
    std::printf("FAIL: sharded metrics diverged from the single-threaded "
                "replay: %s\n",
                det.metrics.diff_report(baseline.metrics).c_str());
    status = 1;
  }

  report.throughput("throughput_baseline_flows_per_sec",
                    baseline.flows_per_sec);
  report.throughput("throughput_deterministic_8shard_flows_per_sec",
                    det.flows_per_sec);
  report.metric("speedup_deterministic_8shard",
                baseline.seconds / det.seconds, "x");
  report.metric("deterministic_bit_identical", identical ? 1.0 : 0.0,
                "bool");
  report.metric("cpu_cores", static_cast<double>(cores), "cores");
  report.controller_load(
      "controller_packet_ins_baseline",
      static_cast<double>(baseline.metrics.controller_packet_ins));
  return status;
}

}  // namespace

int main() {
  benchx::HarnessOptions opts;
  opts.repetitions = 3;
  opts.warmup = 1;
  return benchx::run_benchmark(
      "parallel_scaling",
      "Sharded parallel replay — bit-identity gate + deterministic scaling",
      "repo extension (src/runtime): group-sharded replay with fence-bounded "
      "synchronization; the sharded replay must be bit-identical to "
      "single-threaded replay (gated here); speedup is recorded, not gated",
      opts, body);
}
