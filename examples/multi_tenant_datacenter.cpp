// A paper-scale scenario: 272 edge switches and ~6.5k VMs from ~110
// tenants, a day-long skewed trace, VM migrations at midday, and dynamic
// regrouping keeping the controller lazy. Prints an hour-by-hour report.
//
//   $ ./examples/multi_tenant_datacenter
#include <cstdio>

#include "core/lazyctrl.h"

using namespace lazyctrl;

int main() {
  Rng rng(2026);

  // Paper-scale topology (§V-A).
  topo::MultiTenantOptions topo_opts;
  topo_opts.switch_count = 272;
  topo_opts.tenant_count = 110;
  topo_opts.min_vms_per_tenant = 20;
  topo_opts.max_vms_per_tenant = 100;
  const topo::Topology topo = topo::build_multi_tenant(topo_opts, rng);

  // Day-long trace with diurnal arrivals.
  workload::RealLikeOptions trace_opts;
  trace_opts.total_flows = 250'000;
  const workload::Trace trace =
      workload::generate_real_like(topo, trace_opts, rng);

  core::Config cfg;
  cfg.mode = core::ControlMode::kLazyCtrl;
  cfg.grouping.group_size_limit = 46;
  cfg.dgm.mode = core::DgmMode::kControllerLoad;

  core::Network net(topo, cfg);
  net.bootstrap(workload::build_intensity_graph(trace, topo, 0, kHour));
  std::printf("bootstrapped %zu local control groups over %zu switches "
              "(%zu hosts)\n",
              net.grouping().group_count, topo.switch_count(),
              topo.host_count());

  // Midday maintenance: migrate 30 VMs to new racks between 12:00-12:30.
  std::size_t migrations = 0;
  for (std::uint32_t i = 0; i < 30; ++i) {
    const HostId host{static_cast<std::uint32_t>(
        rng.next_below(topo.host_count()))};
    const SwitchId to{static_cast<std::uint32_t>(
        rng.next_below(topo.switch_count()))};
    net.schedule_migration(host, to,
                           12 * kHour + static_cast<SimTime>(
                                            rng.next_below(30) * kMinute));
    ++migrations;
  }
  std::printf("scheduled %zu VM migrations around noon\n\n", migrations);

  net.replay(trace);

  const core::RunMetrics& m = net.metrics();
  std::printf("%-6s %16s %18s %14s\n", "hour", "ctrl requests/s",
              "mean latency (ms)", "grp updates");
  for (std::size_t h = 0; h < m.controller_requests.bucket_count(); ++h) {
    std::printf("%-6s %16.2f %18.3f %14llu\n",
                m.controller_requests.bucket_label_hours(h).c_str(),
                m.controller_requests.bucket_rate_per_sec(h),
                m.packet_latency.bucket_mean(h),
                (unsigned long long)m.grouping_updates.bucket_events(h));
  }

  std::printf("\nday summary\n");
  std::printf("  flows seen:              %llu\n",
              (unsigned long long)m.flows_seen);
  std::printf("  handled inside LCGs:     %llu (%.1f%%)\n",
              (unsigned long long)(m.flows_intra_group +
                                   m.flows_local_delivery),
              100.0 * static_cast<double>(m.flows_intra_group +
                                          m.flows_local_delivery) /
                  static_cast<double>(m.flows_seen));
  std::printf("  flow-table hits:         %llu\n",
              (unsigned long long)m.flows_flow_table_hit);
  std::printf("  controller packet-ins:   %llu\n",
              (unsigned long long)m.controller_packet_ins);
  std::printf("  grouping updates:        %llu\n",
              (unsigned long long)m.grouping_update_count);
  std::printf("  peer-link messages:      %llu\n",
              (unsigned long long)m.peer_link_messages);
  std::printf("  state-link messages:     %llu\n",
              (unsigned long long)m.state_link_messages);
  std::printf("  BF false-positive copies:%llu (%.4f%% of packets)\n",
              (unsigned long long)m.bf_false_positive_copies,
              100.0 * static_cast<double>(m.bf_false_positive_copies) /
                  static_cast<double>(m.packets_accounted));
  std::printf("  G-FIB storage, fabric:   %zu bytes\n",
              net.total_gfib_bytes());
  return 0;
}
