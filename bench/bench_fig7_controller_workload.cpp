// Reproduces Fig. 7: controller workload per 2-hour bucket over a 24-hour
// trace, for standard OpenFlow and four LazyCtrl variants
// (real/expanded trace x static/dynamic grouping).
//
// Paper result: LazyCtrl reduces controller workload by 61-82%; the real
// trace stays flat under LazyCtrl while the expanded trace needs dynamic
// incremental updates to stay low.
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/network.h"
#include "harness.h"
#include "workload/intensity.h"

using namespace lazyctrl;

namespace {

struct Series {
  std::string name;
  std::vector<double> rps;  // 12 buckets of 2 h
  std::uint64_t packet_ins = 0;
};

Series run(const topo::Topology& topo, const workload::Trace& trace,
           core::ControlMode mode, bool dynamic, const std::string& name) {
  core::Config cfg;
  cfg.mode = mode;
  cfg.grouping.group_size_limit = 46;
  cfg.dgm.mode =
      dynamic ? core::DgmMode::kControllerLoad : core::DgmMode::kOff;
  core::Network net(topo, cfg);
  // Initial grouping from the first-hour traffic (as in the paper §V-D).
  net.bootstrap(workload::build_intensity_graph(trace, topo, 0, kHour));
  net.replay(trace);

  Series s;
  s.name = name;
  const auto& series = net.metrics().controller_requests;
  for (std::size_t b = 0; b + 1 < series.bucket_count(); b += 2) {
    const double events = static_cast<double>(series.bucket_events(b)) +
                          static_cast<double>(series.bucket_events(b + 1));
    s.rps.push_back(events / to_seconds(2 * kHour));
  }
  s.packet_ins = net.metrics().controller_packet_ins;
  return s;
}

int body(benchx::BenchReport& report) {
  const topo::Topology topo = benchx::real_topology();
  const workload::Trace real = benchx::real_trace(topo);
  // The +30% extra flows recur among a fixed set of new host pairs (heavy
  // enough per pair that the new structure is learnable), matching the
  // paper's observation that IncUpdate keeps absorbing the added load.
  Rng exp_rng(404);
  const workload::Trace expanded = workload::expand_trace(
      real, topo, 0.30, 8 * kHour, 24 * kHour, exp_rng,
      /*flows_per_new_pair=*/300.0);
  std::printf("topology: %zu switches, %zu hosts; real trace: %zu flows; "
              "expanded: %zu flows\n\n",
              topo.switch_count(), topo.host_count(), real.flow_count(),
              expanded.flow_count());

  std::vector<Series> all;
  all.push_back(run(topo, real, core::ControlMode::kOpenFlow, false,
                    "OpenFlow"));
  all.push_back(run(topo, real, core::ControlMode::kLazyCtrl, false,
                    "LazyCtrl (real, static)"));
  all.push_back(run(topo, real, core::ControlMode::kLazyCtrl, true,
                    "LazyCtrl (real, dynamic)"));
  all.push_back(run(topo, expanded, core::ControlMode::kLazyCtrl, false,
                    "LazyCtrl (expanded, static)"));
  all.push_back(run(topo, expanded, core::ControlMode::kLazyCtrl, true,
                    "LazyCtrl (expanded, dynamic)"));

  std::printf("%-28s", "series \\ hours");
  for (int b = 0; b < 12; ++b) std::printf("%7d-%-2d", 2 * b, 2 * b + 2);
  std::printf("\n");
  for (const Series& s : all) {
    std::printf("%-28s", s.name.c_str());
    for (double v : s.rps) std::printf("%10.2f", v);
    std::printf("\n");
  }

  const double base = static_cast<double>(all[0].packet_ins);
  const char* keys[] = {"openflow", "lazyctrl_real_static",
                        "lazyctrl_real_dynamic", "lazyctrl_expanded_static",
                        "lazyctrl_expanded_dynamic"};
  report.controller_load("packet_ins_openflow", base);
  std::printf("\nWorkload reduction vs OpenFlow (paper: 61%%-82%%):\n");
  for (std::size_t i = 1; i < all.size(); ++i) {
    const double reduction =
        100.0 * (1.0 - static_cast<double>(all[i].packet_ins) / base);
    std::printf("  %-28s %5.1f%%  (%llu vs %llu requests)\n",
                all[i].name.c_str(), reduction,
                static_cast<unsigned long long>(all[i].packet_ins),
                static_cast<unsigned long long>(all[0].packet_ins));
    report.controller_load(std::string("packet_ins_") + keys[i],
                           static_cast<double>(all[i].packet_ins));
    report.metric(std::string("workload_reduction_pct_") + keys[i], reduction,
                  "percent");
  }
  return 0;
}

}  // namespace

int main() {
  return benchx::run_benchmark(
      "fig7_controller_workload",
      "Fig. 7 — Controller workload (requests/s per 2-hour bucket)",
      "OpenFlow vs LazyCtrl {real,expanded} x {static,dynamic}; 61-82% "
      "workload reduction",
      {}, body);
}
