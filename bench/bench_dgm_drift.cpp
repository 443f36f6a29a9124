// Dynamic Group Maintenance under traffic drift (Fig. 6/7 style).
//
// A drifting-locality workload re-homes a quarter of the edge switches to a
// different traffic community every 3 hours. A frozen initial grouping
// (IniGroup only) degrades as locality shifts; DGM keeps repairing it with
// bounded-cost incremental plans. Reported per series: inter-group traffic
// fraction per 2-hour bucket, total controller load, and — for the DGM
// runs — the migration cost (staged flow-mods) of every maintenance round.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/network.h"
#include "dgm/dgm.h"
#include "harness.h"
#include "workload/intensity.h"

using namespace lazyctrl;

namespace {

struct Series {
  std::string name;
  std::vector<double> inter_fraction;  // per 2-hour bucket
  std::uint64_t packet_ins = 0;
  std::uint64_t flows_inter = 0;
  std::uint64_t flows_seen = 0;
  std::uint64_t dgm_flow_mods = 0;
  std::uint64_t dgm_plans = 0;
  std::vector<dgm::MaintenanceRound> rounds;
};

core::Config base_config() {
  core::Config cfg;
  cfg.mode = core::ControlMode::kLazyCtrl;
  // 96 switches / 6 communities with some slack above the ideal 16, so the
  // regrouper can use cheap single-switch moves, not only merge-and-splits.
  cfg.grouping.group_size_limit = 18;
  cfg.dgm.mode = core::DgmMode::kOff;
  return cfg;
}

Series run(const topo::Topology& topo, const workload::Trace& trace,
           core::Config cfg, const std::string& name) {
  core::Network net(topo, cfg);
  // IniGroup from the first phase's traffic, as in the paper's setup phase.
  net.bootstrap(workload::build_intensity_graph(trace, topo, 0,
                                                trace.horizon / 8));
  net.replay(trace);

  Series s;
  s.name = name;
  const auto& m = net.metrics();
  for (std::size_t b = 0; b + 1 < m.flow_arrivals.bucket_count(); b += 2) {
    const double total =
        static_cast<double>(m.flow_arrivals.bucket_events(b) +
                            m.flow_arrivals.bucket_events(b + 1));
    const double inter =
        static_cast<double>(m.inter_group_arrivals.bucket_events(b) +
                            m.inter_group_arrivals.bucket_events(b + 1));
    s.inter_fraction.push_back(total > 0 ? inter / total : 0.0);
  }
  s.packet_ins = m.controller_packet_ins;
  s.flows_inter = m.flows_inter_group;
  s.flows_seen = m.flows_seen;
  s.dgm_flow_mods = m.dgm_flow_mods;
  s.dgm_plans = m.dgm_plans_applied;
  if (const dgm::MaintainerStats* st = net.dgm_stats()) {
    s.rounds = st->history;
  }
  return s;
}

int body(benchx::BenchReport& report) {
  Rng topo_rng(501);
  topo::MultiTenantOptions topt;
  topt.switch_count = 96;
  topt.tenant_count = 40;
  topt.min_vms_per_tenant = 20;
  topt.max_vms_per_tenant = 60;
  topt.vms_per_switch = 24;
  const topo::Topology topo = topo::build_multi_tenant(topt, topo_rng);

  Rng trace_rng(502);
  workload::DriftingLocalityOptions wopt;
  wopt.total_flows = static_cast<std::size_t>(150'000 * benchx::bench_scale());
  wopt.community_count = 6;
  wopt.phases = 8;
  wopt.drift_fraction = 0.25;
  wopt.intra_community_share = 0.85;
  const workload::Trace trace =
      workload::generate_drifting_locality(topo, wopt, trace_rng);
  std::printf("topology: %zu switches, %zu hosts; trace: %zu flows, "
              "%zu phases, %.0f%% of switches re-home per phase\n\n",
              topo.switch_count(), topo.host_count(), trace.flow_count(),
              wopt.phases, 100.0 * wopt.drift_fraction);

  std::vector<Series> all;
  {
    core::Config cfg = base_config();
    all.push_back(run(topo, trace, cfg, "static (frozen IniGroup)"));
  }
  {
    core::Config cfg = base_config();
    cfg.dgm.mode = core::DgmMode::kControllerLoad;
    all.push_back(run(topo, trace, cfg, "legacy IncUpdate"));
  }
  {
    core::Config cfg = base_config();
    cfg.dgm.mode = core::DgmMode::kPeriodic;
    all.push_back(run(topo, trace, cfg, "DGM periodic"));
  }
  {
    core::Config cfg = base_config();
    cfg.dgm.mode = core::DgmMode::kDriftTriggered;
    all.push_back(run(topo, trace, cfg, "DGM drift-triggered"));
  }

  std::printf("Inter-group traffic fraction per 2-hour bucket:\n");
  std::printf("%-28s", "series \\ hours");
  for (int b = 0; b < 12; ++b) std::printf("%6d-%-2d", 2 * b, 2 * b + 2);
  std::printf("\n");
  for (const Series& s : all) {
    std::printf("%-28s", s.name.c_str());
    for (double v : s.inter_fraction) std::printf("%9.3f", v);
    std::printf("\n");
  }

  std::printf("\nTotals:\n");
  std::printf("  %-28s %10s %12s %12s %10s\n", "series", "Winter",
              "ctrl reqs", "DGM plans", "flow-mods");
  for (const Series& s : all) {
    const double frac =
        s.flows_seen > 0 ? static_cast<double>(s.flows_inter) /
                               static_cast<double>(s.flows_seen)
                         : 0.0;
    std::printf("  %-28s %10.4f %12llu %12llu %10llu\n", s.name.c_str(),
                frac, static_cast<unsigned long long>(s.packet_ins),
                static_cast<unsigned long long>(s.dgm_plans),
                static_cast<unsigned long long>(s.dgm_flow_mods));
  }

  for (const Series& s : all) {
    if (s.rounds.empty()) continue;
    std::printf("\nMigration cost per maintenance round — %s:\n",
                s.name.c_str());
    std::printf("  %8s %-22s %6s %7s %7s %10s %9s %9s\n", "t (h)",
                "trigger", "moves", "merges", "splits", "flow-mods",
                "W before", "W after");
    for (const dgm::MaintenanceRound& r : s.rounds) {
      if (!r.plan_applied) continue;
      std::printf("  %8.2f %-22s %6zu %7zu %7zu %10zu %9.3f %9.3f\n",
                  to_seconds(r.at) / 3600.0, to_string(r.verdict.kind),
                  r.moves, r.merges, r.splits, r.flow_mods, r.inter_before,
                  r.inter_after);
    }
  }

  // Acceptance check: DGM keeps the realised inter-group fraction strictly
  // below the frozen static grouping.
  const double static_frac =
      static_cast<double>(all[0].flows_inter) /
      static_cast<double>(std::max<std::uint64_t>(all[0].flows_seen, 1));
  const char* keys[] = {"static", "legacy_incupdate", "dgm_periodic",
                        "dgm_drift_triggered"};
  bool ok = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double frac =
        static_cast<double>(all[i].flows_inter) /
        static_cast<double>(std::max<std::uint64_t>(all[i].flows_seen, 1));
    if (i >= 2 && frac >= static_frac) ok = false;
    report.metric(std::string("inter_group_fraction_") + keys[i], frac,
                  "fraction");
    report.controller_load(std::string("packet_ins_") + keys[i],
                           static_cast<double>(all[i].packet_ins));
  }
  report.metric("dgm_flow_mods",
                static_cast<double>(all.back().dgm_flow_mods), "flow_mods");
  std::printf("\n%s: DGM inter-group fraction %s static baseline (%.4f)\n",
              ok ? "PASS" : "FAIL", ok ? "below" : "NOT below", static_frac);
  if (!ok && all.back().dgm_plans == 0) {
    std::printf("note: no DGM plans were applied — at this flow scale the "
                "decayed estimate stays below dgm.min_flow_evidence, so the "
                "maintainer (correctly) refuses to regroup on noise. Try a "
                "larger LAZYCTRL_BENCH_SCALE.\n");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main() {
  return benchx::run_benchmark(
      "dgm_drift", "DGM — inter-group traffic under drifting locality",
      "static IniGroup-only grouping vs online Dynamic Group Maintenance",
      {}, body);
}
