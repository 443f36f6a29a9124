// Maintainer: the DGM control loop.
//
// One maintenance round = evaluate the drift detector against the monitor's
// decayed estimate, plan a bounded repair with the incremental regrouper,
// and apply it through the migration executor. In kPeriodic mode a repair
// is attempted every round (evidence permitting); in kDriftTriggered mode
// only when the detector fires. Every round is recorded so benches can
// report migration cost (flow-mods) per round over time.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "core/config.h"
#include "dgm/drift_detector.h"
#include "dgm/migration_executor.h"
#include "dgm/regrouper.h"
#include "dgm/traffic_monitor.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::dgm {

struct MaintenanceRound {
  SimTime at = 0;
  DriftVerdict verdict;
  bool plan_applied = false;
  std::size_t moves = 0;
  std::size_t merges = 0;
  std::size_t splits = 0;
  std::size_t touched_groups = 0;
  std::size_t flow_mods = 0;
  double inter_before = 0;  ///< inter-group fraction entering the round
  double inter_after = 0;   ///< fraction after the applied plan (== before
                            ///< when nothing was applied)
};

struct MaintainerStats {
  std::uint64_t rounds = 0;
  std::uint64_t plans_applied = 0;
  std::uint64_t switch_moves = 0;
  std::uint64_t group_merges = 0;
  std::uint64_t group_splits = 0;
  std::uint64_t flow_mods = 0;
  std::vector<MaintenanceRound> history;
};

class Maintainer {
 public:
  /// `group_size_limit` is the grouping constraint (GroupingConfig);
  /// everything else comes from the DgmConfig knobs. The rng stream is
  /// derived from `seed` and independent of the network's stream, so
  /// enabling DGM never perturbs trace generation or IniGroup.
  Maintainer(const core::DgmConfig& config, std::size_t group_size_limit,
             GroupingHost& host, std::uint64_t seed);

  /// Runs one maintenance round at `now`; returns the recorded outcome
  /// (also appended to stats().history).
  MaintenanceRound maintenance_round(const TrafficMonitor& monitor,
                                     SimTime now);

  [[nodiscard]] const MaintainerStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const DriftDetector& detector() const noexcept {
    return detector_;
  }

 private:
  /// Snapshot codec (src/ckpt): restores the rng stream position, the
  /// round history/stats and the detector's baseline and cooldown clock.
  friend class lazyctrl::ckpt::StateAccess;

  core::DgmConfig config_;
  std::size_t group_size_limit_;
  GroupingHost* host_;
  DriftDetector detector_;
  IncrementalRegrouper regrouper_;
  MigrationExecutor executor_;
  Rng rng_;
  MaintainerStats stats_;
};

}  // namespace lazyctrl::dgm
