// MigrationExecutor: applies a MigrationPlan to the live control plane.
//
// The executor is the only DGM component with side effects. It validates a
// plan against the current grouping (plans go stale if anything regrouped
// since planning), accounts the staged update cost — per touched group,
// every member gets a preloaded temporary rule and a fresh G-FIB, and the
// controller rewrites one SGI record — and commits through the
// GroupingHost seam. The host (core::Network) performs the actual staged
// LFIB/GFIB rebuilds, transition windows and failure-wheel resync through
// the same commit as an IncUpdate, so forwarding stays correct
// mid-migration.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/ids.h"
#include "core/sgi.h"
#include "dgm/regrouper.h"

namespace lazyctrl::dgm {

/// The surface the executor needs from the control plane. core::Network
/// implements it; tests can substitute a fake to check staging in
/// isolation.
class GroupingHost {
 public:
  virtual ~GroupingHost() = default;

  [[nodiscard]] virtual const core::Grouping& current_grouping() const = 0;

  /// Commits `grouping` as the new live grouping: SGI rewrite at the
  /// controller, G-FIB resync + preload/transition window for every member
  /// of the `touched` groups (ids in `grouping`'s numbering), and failure
  /// wheel rebuild when failover is enabled.
  virtual void commit_grouping(core::Grouping grouping,
                               const std::vector<GroupId>& touched) = 0;
};

struct ExecutionReport {
  bool applied = false;
  std::string reject_reason;  ///< set when !applied
  std::size_t touched_groups = 0;
  /// Switches receiving a fresh G-FIB (sum of touched-group sizes).
  std::size_t gfib_rebuilds = 0;
  /// Staged rule updates pushed: one preload rule + one G-FIB sync bundle
  /// per member of each touched group, plus one SGI rewrite per group.
  std::size_t flow_mods = 0;
};

class MigrationExecutor {
 public:
  explicit MigrationExecutor(GroupingHost& host) : host_(&host) {}

  /// Validates and applies `plan`. Rejects (without side effects) plans
  /// whose `before` no longer matches the live grouping, that leave a
  /// switch unassigned, or that violate the size limit they carry.
  ExecutionReport apply(const MigrationPlan& plan);

 private:
  GroupingHost* host_;
};

}  // namespace lazyctrl::dgm
