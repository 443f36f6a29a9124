// SGI: Size-constrained Grouping algorithm with Incremental update support
// (paper §III-C2, Fig. 3).
//
//  * IniGroup — estimates the group count k = ceil(N / limit), builds the
//    intensity graph (supplied by the caller) and produces an initial
//    feasible grouping with the size-constrained MLkP partitioner.
//  * IncUpdate — while the controller is overloaded, repeatedly finds the
//    two groups with the most significant (recent) mutual traffic, merges
//    them and re-splits with a minimum bisection so both halves respect the
//    size limit. Its pair ranking and operator are free functions, which
//    DGM's incremental regrouper (src/dgm) calls too.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "graph/weighted_graph.h"

namespace lazyctrl::core {

/// A grouping of switches into local control groups. Indexed by switch id.
struct Grouping {
  /// switch index -> group index (dense, < group_count).
  std::vector<std::uint32_t> switch_to_group;
  std::size_t group_count = 0;

  [[nodiscard]] GroupId group_of(SwitchId sw) const {
    return GroupId{switch_to_group[sw.value()]};
  }
  /// Member switch ids per group, ascending within each group.
  [[nodiscard]] std::vector<std::vector<SwitchId>> members() const;
  /// Drops empty groups and renumbers densely.
  void compact();
};

struct SgiOptions {
  std::size_t group_size_limit = 46;
  /// Max merge/split iterations per IncUpdate invocation.
  int max_iterations = 4;
  /// Appendix B: handle several disjoint group pairs per iteration.
  bool parallel = false;
  /// Number of disjoint pairs per iteration when `parallel`.
  int parallel_batch = 3;
  /// A merge/split is committed only if it cuts the pair's inter-group
  /// weight by at least this fraction — marginal "improvements" on a
  /// sampled intensity estimate are usually noise and churn good groupings.
  double min_improvement_fraction = 0.05;
};

/// Normalized inter-group traffic intensity Winter (paper §III-C1), as a
/// fraction of total intensity in [0, 1].
[[nodiscard]] double inter_group_intensity(const graph::WeightedGraph& w,
                                           const Grouping& g);

/// Two groups (a < b) that exchange traffic, and the weight between them.
struct GroupPair {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double weight = 0;
};

struct RankedGroupPairs {
  /// Every group pair joined by an edge, heaviest first; equal weights
  /// keep (a, b) order.
  std::vector<GroupPair> pairs;
  /// Sum of the weights, added in (a, b) order (not ranked order, whose
  /// rounding differs).
  double total = 0;
};

/// Inter-group weight per group pair of `g` on `w`, ranked. Every switch's
/// group must be below `g.group_count`.
[[nodiscard]] RankedGroupPairs ranked_group_pairs(const graph::WeightedGraph& w,
                                                  const Grouping& g);

struct MergeSplit {
  bool committed = false;
  double cut_before = 0;  ///< weight between the two groups before...
  double cut_after = 0;   ///< ...and after (== cut_before unless committed)
};

/// IncUpdate's operator (§III-C2): merges groups a and b and min-bisects
/// the union under `size_limit`. Commits (side 0 keeps id a, side 1 takes
/// id b) only when the new cut is below cut_before x (1 -
/// `min_gain_fraction`) — a marginal gain on a sampled estimate is usually
/// noise — and both halves fit the limit. Draws from `rng` once, in the
/// bisection, unless the union has fewer than two switches.
MergeSplit merge_and_split(Grouping& grouping, std::uint32_t a,
                           std::uint32_t b, const graph::WeightedGraph& w,
                           std::size_t size_limit, double min_gain_fraction,
                           Rng& rng);

class Sgi {
 public:
  explicit Sgi(SgiOptions options) : options_(options) {}

  /// IniGroup: initial grouping from a history intensity graph. The number
  /// of groups k is estimated as ceil(vertex_count / group_size_limit).
  [[nodiscard]] Grouping initial_grouping(const graph::WeightedGraph& w,
                                          Rng& rng) const;

  struct UpdateResult {
    int iterations = 0;
    double inter_group_before = 0.0;
    double inter_group_after = 0.0;
    /// Groups whose membership changed (for targeted G-FIB resync).
    std::vector<GroupId> touched_groups;
  };

  /// IncUpdate: greedy merge/split refinement against the *recent* intensity
  /// graph. Stops early when an iteration yields no improvement.
  UpdateResult incremental_update(Grouping& grouping,
                                  const graph::WeightedGraph& recent,
                                  Rng& rng) const;

  [[nodiscard]] const SgiOptions& options() const noexcept { return options_; }

 private:
  SgiOptions options_;
};

}  // namespace lazyctrl::core
