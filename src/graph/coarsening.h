// Graph coarsening by heavy-edge matching (HEM), the first phase of the
// multi-level k-way partitioning scheme of Karypis & Kumar that the paper's
// SGI algorithm builds on (§III-C2).
//
// HEM visits vertices in random order and matches each unmatched vertex with
// the unmatched neighbour joined by the heaviest edge; matched pairs collapse
// into a single coarse vertex whose weight is the pair sum, and parallel
// edges merge by adding weights. This shrinks the graph roughly 2x per level
// while preserving heavy edges inside coarse vertices, so the coarse cut is
// a faithful proxy for the fine cut.
#pragma once

#include <vector>

#include "common/rng.h"
#include "graph/weighted_graph.h"

namespace lazyctrl::graph {

/// One coarsening level: the coarse graph plus the fine->coarse vertex map.
struct CoarseLevel {
  WeightedGraph graph;
  /// fine_to_coarse[v_fine] = v_coarse
  std::vector<VertexId> fine_to_coarse;
};

/// `g` with each vertex v merged into coarse vertex fine_to_coarse[v]
/// (below `coarse_count`): a coarse vertex weighs what its fine vertices
/// weigh together, and the fine edges between two coarse vertices add up
/// to one coarse edge. The result is what add_edge gives when called for
/// every fine edge {u, v}, u < v, that joins two coarse vertices, in
/// order of u and then of u's adjacency: the same adjacency order, weight
/// bits and total. A repeated pair costs O(1) instead of add_edge's
/// O(degree); each fine vertex also reads its coarse vertex's list once.
WeightedGraph contract(const WeightedGraph& g,
                       const std::vector<VertexId>& fine_to_coarse,
                       std::size_t coarse_count);

/// Collapses `g` one level via heavy-edge matching.
CoarseLevel coarsen_once(const WeightedGraph& g, Rng& rng);

/// Repeatedly coarsens until at most `target_vertices` vertices remain or
/// a level shrinks the graph by less than ~10% (diminishing returns).
/// Returns levels in coarsening order: levels[0] is one step from `g`.
std::vector<CoarseLevel> coarsen_to(const WeightedGraph& g,
                                    std::size_t target_vertices, Rng& rng);

}  // namespace lazyctrl::graph
