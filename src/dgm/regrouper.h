// IncrementalRegrouper: plans bounded-cost grouping repairs.
//
// Never reruns the full multilevel partitioner. Instead it composes three
// cheap incremental operators on the live intensity graph, each with a
// per-round budget so the migration cost (G-FIB rebuilds, preload rules)
// stays bounded:
//
//   1. single-switch migrations — FM boundary gains (graph/fm_refinement's
//      plan_bounded_moves) move the few switches whose affinity crossed a
//      group boundary;
//   2. group merges — two under-full groups with significant mutual traffic
//      and combined size within the limit become one;
//   3. merge-and-splits — a heavy inter-group pair too big to merge is
//      unioned and re-cut with a minimum bisection (core::merge_and_split,
//      SGI IncUpdate's operator, §III-C2).
//
// Phases 2 and 3 walk core::ranked_group_pairs, the ranking IncUpdate uses.
//
// The output is a MigrationPlan: before/after groupings, the action list,
// and the touched groups whose G-FIBs must be resynced. The plan is pure
// data — the MigrationExecutor applies it to the live control plane.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "core/sgi.h"
#include "graph/weighted_graph.h"

namespace lazyctrl::dgm {

struct SwitchMove {
  SwitchId sw;
  GroupId from;  ///< group ids in the *before* numbering
  GroupId to;
  double gain = 0;  ///< inter-group intensity removed by the move
};

struct GroupMerge {
  GroupId a;  ///< absorbing group (before numbering)
  GroupId b;  ///< absorbed group
  double mutual_weight = 0;
};

struct GroupSplit {
  GroupId a;  ///< the re-cut pair (before numbering)
  GroupId b;
  double cut_before = 0;
  double cut_after = 0;
};

struct MigrationPlan {
  core::Grouping before;
  /// Resulting grouping, compacted (dense ids in first-appearance order,
  /// exactly what core::Network::apply_grouping expects).
  core::Grouping after;
  std::vector<SwitchMove> moves;
  std::vector<GroupMerge> merges;
  std::vector<GroupSplit> splits;
  /// Groups in the *after* numbering whose member set changed (targets for
  /// G-FIB resync and preload).
  std::vector<GroupId> touched;
  /// Inter-group fraction of the planning graph before/after (predicted).
  double inter_before = 0;
  double inter_after = 0;
  /// Size limit the plan was built under; the executor re-validates it.
  std::size_t group_size_limit = 0;

  [[nodiscard]] bool empty() const noexcept {
    return moves.empty() && merges.empty() && splits.empty();
  }
};

struct RegrouperOptions {
  std::size_t group_size_limit = 46;
  std::size_t max_moves = 8;
  std::size_t max_merges = 2;
  std::size_t max_splits = 2;
  /// Minimum relative improvement for merges/splits; also scales the
  /// per-move gain floor (min_gain_fraction x mean incident weight).
  double min_gain_fraction = 0.02;
};

class IncrementalRegrouper {
 public:
  explicit IncrementalRegrouper(RegrouperOptions options)
      : options_(options) {}

  /// Plans a bounded repair of `current` against `intensity`. Deterministic
  /// for a given rng state. The returned plan may be empty (no profitable
  /// action within budget).
  [[nodiscard]] MigrationPlan plan(const core::Grouping& current,
                                   const graph::WeightedGraph& intensity,
                                   Rng& rng) const;

  [[nodiscard]] const RegrouperOptions& options() const noexcept {
    return options_;
  }

 private:
  RegrouperOptions options_;
};

}  // namespace lazyctrl::dgm
