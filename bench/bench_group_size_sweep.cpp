// Appendix C, "Methods for Determining the Right Group Size": sweep the
// group size limit on the real trace and measure both sides of the trade —
// controller workload (laziness) and per-switch control overhead (G-FIB
// memory, peer-link chatter).
#include <cstdio>

#include "bench_common.h"
#include "core/network.h"
#include "harness.h"
#include "workload/intensity.h"

using namespace lazyctrl;

namespace {

int body(benchx::BenchReport& report) {
  const topo::Topology topo = benchx::real_topology();
  const workload::Trace trace = benchx::real_trace(topo);
  const auto history = workload::build_intensity_graph(trace, topo, 0, kHour);

  // OpenFlow reference for the reduction column.
  std::uint64_t baseline_requests = 0;
  {
    core::Config cfg;
    cfg.mode = core::ControlMode::kOpenFlow;
    core::Network net(topo, cfg);
    net.bootstrap();
    net.replay(trace);
    baseline_requests = net.metrics().controller_packet_ins;
  }

  std::printf("%-8s %8s %12s %12s %16s %16s\n", "limit", "groups",
              "packet-ins", "reduction", "G-FIB B/switch", "peer-link msgs");
  for (std::size_t limit : {8u, 16u, 23u, 46u, 92u, 136u}) {
    core::Config cfg;
    cfg.mode = core::ControlMode::kLazyCtrl;
    cfg.grouping.group_size_limit = limit;
    cfg.dgm.mode = core::DgmMode::kOff;
    core::Network net(topo, cfg);
    net.bootstrap(history);
    net.replay(trace);
    const core::RunMetrics& m = net.metrics();
    std::printf("%-8zu %8zu %12llu %11.1f%% %16zu %16llu\n", limit,
                net.grouping().group_count,
                (unsigned long long)m.controller_packet_ins,
                100.0 * (1.0 - static_cast<double>(m.controller_packet_ins) /
                                   static_cast<double>(baseline_requests)),
                (limit - 1) * 2048,
                (unsigned long long)m.peer_link_messages);
    const std::string suffix = "_limit" + std::to_string(limit);
    report.controller_load("packet_ins" + suffix,
                           static_cast<double>(m.controller_packet_ins));
    report.memory_bytes("gfib_bytes_per_switch" + suffix,
                        static_cast<double>((limit - 1) * 2048));
  }
  report.controller_load("packet_ins_openflow_baseline",
                         static_cast<double>(baseline_requests));
  std::printf("\nOpenFlow baseline: %llu packet-ins.\n",
              (unsigned long long)baseline_requests);
  std::printf("The monotone workload/memory trade is what the appendix's "
              "bargaining resolves at runtime.\n");
  return 0;
}

}  // namespace

int main() {
  return benchx::run_benchmark(
      "group_size_sweep",
      "Appendix C — group size limit sweep (workload vs switch overhead)",
      "larger groups -> lazier controller but more per-switch state", {},
      body);
}
