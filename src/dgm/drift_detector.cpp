#include "dgm/drift_detector.h"

#include <algorithm>
#include <vector>

namespace lazyctrl::dgm {

const char* to_string(DriftKind kind) noexcept {
  switch (kind) {
    case DriftKind::kNone: return "none";
    case DriftKind::kInterGroupAbsolute: return "inter-group-absolute";
    case DriftKind::kInterGroupDegraded: return "inter-group-degraded";
    case DriftKind::kGroupSizeSkew: return "group-size-skew";
  }
  return "?";
}

double group_size_skew(const core::Grouping& grouping,
                       std::size_t group_size_limit) {
  if (grouping.group_count < 2 || group_size_limit == 0) return 0.0;
  std::vector<std::size_t> sizes(grouping.group_count, 0);
  for (std::uint32_t g : grouping.switch_to_group) ++sizes[g];
  std::size_t lo = grouping.switch_to_group.size(), hi = 0;
  for (std::size_t s : sizes) {
    if (s == 0) continue;  // compact() normally removes these
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  if (hi <= lo) return 0.0;
  return static_cast<double>(hi - lo) / static_cast<double>(group_size_limit);
}

DriftVerdict DriftDetector::evaluate(const TrafficMonitor& monitor,
                                     const core::Grouping& grouping,
                                     std::size_t group_size_limit,
                                     SimTime now) {
  DriftVerdict v;
  v.evidence = monitor.flow_mass();
  v.baseline_fraction = baseline_fraction_;
  const TrafficMonitor::TrafficSplit split = monitor.split(grouping);
  v.inter_fraction = split.inter_fraction();
  v.size_skew = group_size_skew(grouping, group_size_limit);

  if (grouping.group_count < 2) return v;  // nothing to regroup
  if (v.evidence < config_.min_flow_evidence) return v;
  if (!cooled_down(now)) return v;

  if (v.inter_fraction > config_.inter_fraction_limit) {
    v.kind = DriftKind::kInterGroupAbsolute;
  } else if (baseline_fraction_ >= 0 &&
             v.inter_fraction > config_.degradation_floor &&
             v.inter_fraction >
                 baseline_fraction_ * config_.degradation_factor) {
    v.kind = DriftKind::kInterGroupDegraded;
  } else if (v.size_skew > config_.size_skew_limit) {
    v.kind = DriftKind::kGroupSizeSkew;
  }
  return v;
}

void DriftDetector::note_regrouped(double achieved_inter_fraction,
                                   SimTime now) {
  baseline_fraction_ = achieved_inter_fraction;
  last_regroup_at_ = now;
}

}  // namespace lazyctrl::dgm
