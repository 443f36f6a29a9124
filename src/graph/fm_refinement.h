// Boundary refinement and feasibility repair for k-way partitions.
//
// This is the uncoarsening-phase move engine of MLkP: a Fiduccia-Mattheyses
// style greedy pass that moves boundary vertices to the neighbouring part
// with the highest gain, subject to the size constraint. Gains are the
// classic KL/FM external-minus-internal edge weights.
//
// A vertex visit sums the vertex's edge weight into each part in a dense
// row reused across visits (O(degree) per visit, no allocation). The
// functions below require every vertex assigned to a part below
// `p.part_count`.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "graph/partition.h"
#include "graph/weighted_graph.h"

namespace lazyctrl::graph {

struct RefineOptions {
  /// Maximum number of full passes over the boundary per invocation.
  int max_passes = 8;
  /// Graphs up to this many vertices additionally get true FM passes with
  /// tentative negative moves and rollback (escapes the local optima the
  /// greedy positive-gain pass stalls in). Larger graphs rely on the cheap
  /// greedy pass only, as in boundary-limited production partitioners.
  /// Cost: each FM step rescans every unmoved vertex, O(n * degree), for
  /// up to n steps (a pass stops early once its cumulative gain falls well
  /// below its best), where a greedy pass visits each vertex once.
  std::size_t hill_climb_vertex_limit = 1024;
};

/// Greedily improves `p` in place without violating `c`.
/// Returns the total cut-weight reduction achieved (>= 0).
Weight refine_partition(const WeightedGraph& g, Partition& p,
                        const PartitionConstraints& c, const RefineOptions& o,
                        Rng& rng);

/// One planned boundary move (FM gain = external - internal connectivity).
struct BoundedMove {
  VertexId vertex = 0;
  PartId from = kUnassigned;
  PartId to = kUnassigned;
  Weight gain = 0;
};

/// Plans and applies at most `max_moves` positive-gain boundary moves on
/// `p`, each the globally best admissible move at its step (size constraint
/// respected, gain > `min_gain`). Deterministic — no rng, ties broken by
/// lowest vertex id — so callers can budget migration cost per invocation.
/// Returns the moves in application order.
std::vector<BoundedMove> plan_bounded_moves(const WeightedGraph& g,
                                            Partition& p,
                                            const PartitionConstraints& c,
                                            std::size_t max_moves,
                                            Weight min_gain = 0);

/// Moves vertices out of overweight parts until every part satisfies the
/// size constraint, creating new parts when nothing else has room (the
/// grouping problem allows a variable number of groups, §III-C1). Returns
/// false only if some single vertex alone exceeds the limit.
bool repair_overweight(const WeightedGraph& g, Partition& p,
                       const PartitionConstraints& c, Rng& rng);

/// Vertex visits in this process whose move a near-tie left to the scan
/// order: the best admissible gain beat the running best but not every
/// other admissible gain by more than the comparison's tolerance (1e-12
/// in the greedy pass and plan_bounded_moves, exact equality in the FM
/// pass). Such a visit scans the vertex's parts in the iteration order of
/// a std::unordered_map filled in neighbour order, the tie order of every
/// pinned grouping. Tests read it to show that the rule runs.
[[nodiscard]] std::uint64_t tie_broken_visits() noexcept;

}  // namespace lazyctrl::graph
