#include "core/report.h"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace lazyctrl::core {

namespace {

const char* mode_name(ControlMode mode) {
  return mode == ControlMode::kOpenFlow ? "OpenFlow" : "LazyCtrl";
}

void write_series(std::ostream& out, const RunMetrics& m, int hours) {
  out << "  per-" << hours << "h controller requests/s:";
  const auto& series = m.controller_requests;
  for (std::size_t b = 0; b < series.bucket_count();
       b += static_cast<std::size_t>(hours)) {
    double events = 0;
    for (int h = 0; h < hours &&
                    b + static_cast<std::size_t>(h) < series.bucket_count();
         ++h) {
      events += static_cast<double>(
          series.bucket_events(b + static_cast<std::size_t>(h)));
    }
    out << ' ' << std::fixed << std::setprecision(2)
        << events / to_seconds(static_cast<SimDuration>(hours) * kHour);
  }
  out << '\n';
}

}  // namespace

void write_report(std::ostream& out, const Network& network,
                  const ReportOptions& options) {
  const RunMetrics& m = network.metrics();
  out << mode_name(network.config().mode) << " run over "
      << network.topology().switch_count() << " switches / "
      << network.topology().host_count() << " hosts\n";
  out << "  flows seen:               " << m.flows_seen << '\n';
  out << "  local deliveries:         " << m.flows_local_delivery << '\n';
  out << "  intra-group (LCG):        " << m.flows_intra_group << '\n';
  out << "  inter-group (controller): " << m.flows_inter_group << '\n';
  out << "  flow-table hits:          " << m.flows_flow_table_hit << '\n';
  out << "  controller packet-ins:    " << m.controller_packet_ins << '\n';
  out << "  grouping updates:         " << m.grouping_update_count << '\n';
  out << std::fixed << std::setprecision(3);
  out << "  mean first-packet (ms):   " << m.first_packet_latency_ms.mean()
      << '\n';
  out << "  mean ctrl queue wait (ms):" << m.controller_queue_delay_ms.mean()
      << '\n';
  if (network.config().mode == ControlMode::kLazyCtrl) {
    out << "  groups:                   "
        << network.grouping().group_count << '\n';
    out << "  peer-link messages:       " << m.peer_link_messages << '\n';
    out << "  state-link messages:      " << m.state_link_messages << '\n';
    out << "  BF false-positive copies: " << m.bf_false_positive_copies
        << '\n';
    out << "  G-FIB bytes (group banks):" << network.total_gfib_bytes()
        << '\n';
  }
  if (options.include_series) {
    write_series(out, m, options.hours_per_bucket);
  }
}

void write_comparison(std::ostream& out, const Network& baseline,
                      const Network& lazyctrl, const ReportOptions& options) {
  write_report(out, baseline, options);
  out << '\n';
  write_report(out, lazyctrl, options);
  const double base =
      static_cast<double>(baseline.metrics().controller_packet_ins);
  if (base > 0) {
    const double reduction =
        100.0 * (1.0 - static_cast<double>(
                           lazyctrl.metrics().controller_packet_ins) /
                           base);
    out << "\ncontroller workload reduction: " << std::fixed
        << std::setprecision(1) << reduction << "%\n";
  }
}

std::string report_string(const Network& network,
                          const ReportOptions& options) {
  std::ostringstream oss;
  write_report(oss, network, options);
  return oss.str();
}

}  // namespace lazyctrl::core
