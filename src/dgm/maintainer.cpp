#include "dgm/maintainer.h"

#include "common/log.h"
#include "obs/trace.h"

namespace lazyctrl::dgm {

namespace {

RegrouperOptions regrouper_options(const core::DgmConfig& config,
                                   std::size_t group_size_limit) {
  RegrouperOptions o;
  o.group_size_limit = group_size_limit;
  o.max_moves = config.max_moves_per_round;
  o.max_merges = config.max_merges_per_round;
  o.max_splits = config.max_splits_per_round;
  o.min_gain_fraction = config.min_gain_fraction;
  return o;
}

}  // namespace

Maintainer::Maintainer(const core::DgmConfig& config,
                       std::size_t group_size_limit, GroupingHost& host,
                       std::uint64_t seed)
    : config_(config),
      group_size_limit_(group_size_limit),
      host_(&host),
      detector_(config),
      regrouper_(regrouper_options(config, group_size_limit)),
      executor_(host),
      // Independent stream: golden-ratio offset keeps it uncorrelated with
      // the network's SplitMix64 stream for the same seed.
      rng_(seed ^ 0x9E3779B97F4A7C15ULL) {}

MaintenanceRound Maintainer::maintenance_round(const TrafficMonitor& monitor,
                                               SimTime now) {
  MaintenanceRound round;
  round.at = now;
  ++stats_.rounds;

  const core::Grouping& live = host_->current_grouping();
  round.verdict =
      detector_.evaluate(monitor, live, group_size_limit_, now);
  round.inter_before = round.verdict.inter_fraction;
  round.inter_after = round.inter_before;
  obs::trace_instant(
      obs::TraceEventType::kDgmRound, now, round.verdict.triggered() ? 1 : 0,
      static_cast<std::uint64_t>(round.inter_before * 100.0));

  const bool evidence_ok =
      round.verdict.evidence >= config_.min_flow_evidence;
  // Periodic mode bypasses the detector's verdict but not its
  // anti-oscillation contract: the cooldown bounds applied-plan spacing in
  // every mode.
  const bool should_plan =
      config_.mode == core::DgmMode::kPeriodic
          ? evidence_ok && detector_.cooled_down(now)
          : round.verdict.triggered();
  if (!should_plan) {
    stats_.history.push_back(round);
    return round;
  }

  const MigrationPlan plan =
      regrouper_.plan(live, monitor.intensity_graph(), rng_);
  if (!plan.empty()) {
    const ExecutionReport report = executor_.apply(plan);
    if (report.applied) {
      round.plan_applied = true;
      round.moves = plan.moves.size();
      round.merges = plan.merges.size();
      round.splits = plan.splits.size();
      round.touched_groups = report.touched_groups;
      round.flow_mods = report.flow_mods;
      // Re-measure on the committed grouping: the achieved fraction seeds
      // the detector's degradation baseline.
      round.inter_after =
          monitor.split(host_->current_grouping()).inter_fraction();
      detector_.note_regrouped(round.inter_after, now);
      obs::trace_instant(obs::TraceEventType::kDgmPlanApply, now, round.moves,
                         round.flow_mods);

      ++stats_.plans_applied;
      stats_.switch_moves += round.moves;
      stats_.group_merges += round.merges;
      stats_.group_splits += round.splits;
      stats_.flow_mods += round.flow_mods;
      LOG_DEBUG("dgm round at t=" << to_seconds(now) << "s ["
                                  << to_string(round.verdict.kind)
                                  << "]: " << round.moves << " moves, "
                                  << round.merges << " merges, "
                                  << round.splits << " splits, Winter "
                                  << round.inter_before << " -> "
                                  << round.inter_after);
    }
  }
  stats_.history.push_back(round);
  return round;
}

}  // namespace lazyctrl::dgm
