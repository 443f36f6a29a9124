// DriftDetector: decides *when* group maintenance is worth its cost.
//
// Watches two signals derived from the TrafficMonitor estimate against the
// live grouping: the inter-group traffic fraction (the quantity LazyCtrl
// exists to minimise — every inter-group flow is a controller request) and
// the group-size skew (skewed groups concentrate designated-switch load).
// Fires on an absolute ceiling, on relative degradation versus the fraction
// measured right after the last regroup, or on size skew; a cooldown and a
// minimum-evidence gate suppress oscillation on thin data.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "core/config.h"
#include "core/sgi.h"
#include "dgm/traffic_monitor.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::dgm {

enum class DriftKind : std::uint8_t {
  kNone,                ///< grouping still tracks the traffic
  kInterGroupAbsolute,  ///< inter-group fraction above the hard ceiling
  kInterGroupDegraded,  ///< fraction grew past factor x post-regroup baseline
  kGroupSizeSkew,       ///< group sizes drifted apart beyond the limit
};

[[nodiscard]] const char* to_string(DriftKind kind) noexcept;

struct DriftVerdict {
  DriftKind kind = DriftKind::kNone;
  /// Measured inter-group fraction of cross-switch traffic.
  double inter_fraction = 0.0;
  /// Baseline fraction recorded after the last applied regroup (< 0 until
  /// one exists).
  double baseline_fraction = -1.0;
  /// (max - min group size) / group_size_limit.
  double size_skew = 0.0;
  /// Decayed flow mass backing the measurement.
  double evidence = 0.0;

  [[nodiscard]] bool triggered() const noexcept {
    return kind != DriftKind::kNone;
  }
};

class DriftDetector {
 public:
  explicit DriftDetector(const core::DgmConfig& config) : config_(config) {}

  /// Evaluates the drift signals at `now`. Returns kNone while evidence is
  /// below `min_flow_evidence` or the cooldown since the last applied
  /// regroup has not elapsed (measurements are still filled in).
  [[nodiscard]] DriftVerdict evaluate(const TrafficMonitor& monitor,
                                      const core::Grouping& grouping,
                                      std::size_t group_size_limit,
                                      SimTime now);

  /// Records that a plan was applied: the achieved fraction becomes the new
  /// degradation baseline and the cooldown restarts.
  void note_regrouped(double achieved_inter_fraction, SimTime now);

  /// True once `cooldown` has passed since the last applied plan (or none
  /// was ever applied): the DGM cooldown clock, in every mode.
  [[nodiscard]] bool cooled_down(SimTime now) const noexcept {
    return last_regroup_at_ < 0 || now - last_regroup_at_ >= config_.cooldown;
  }

  [[nodiscard]] double baseline_fraction() const noexcept {
    return baseline_fraction_;
  }

 private:
  friend class lazyctrl::ckpt::StateAccess;  // snapshot codec (src/ckpt)

  core::DgmConfig config_;
  double baseline_fraction_ = -1.0;
  SimTime last_regroup_at_ = -1;
};

/// (max - min group size) / group_size_limit over non-empty groups; 0 for
/// fewer than two groups.
[[nodiscard]] double group_size_skew(const core::Grouping& grouping,
                                     std::size_t group_size_limit);

}  // namespace lazyctrl::dgm
