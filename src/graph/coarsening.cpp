#include "graph/coarsening.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace lazyctrl::graph {

WeightedGraph contract(const WeightedGraph& g,
                       const std::vector<VertexId>& fine_to_coarse,
                       std::size_t coarse_count) {
  const std::size_t n = g.vertex_count();
  WeightedGraph coarse(coarse_count);
  {
    // Coarse vertex weight = sum of its constituents' weights.
    std::vector<Weight> sums(coarse_count, 0);
    for (VertexId v = 0; v < n; ++v) {
      sums[fine_to_coarse[v]] += g.vertex_weight(v);
    }
    for (VertexId cv = 0; cv < coarse_count; ++cv) {
      coarse.set_vertex_weight(cv, sums[cv]);
    }
  }

  // Edges are made as add_edge would make them, in the order the fine
  // edges are visited: a new pair is appended to both lists and a
  // repeated one adds onto its two entries. Only the search is O(1).
  // While fine vertex u is visited, `where[cv]` (stamped u) holds the
  // positions of the edge {cu, cv} in cu's list and in cv's; entry i of
  // c's list has its partner entry at twin[first[c] + i] of the
  // neighbour's list. A coarse vertex has at most as many neighbours as
  // its fine vertices have together, which sizes its run of `twin`.
  std::vector<std::size_t> first(coarse_count + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    first[fine_to_coarse[v] + 1] += g.neighbors(v).size();
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::uint32_t> twin(first[coarse_count]);
  struct Where {
    VertexId stamp = static_cast<VertexId>(-1);
    std::uint32_t at_cu = 0;
    std::uint32_t at_cv = 0;
  };
  std::vector<Where> where(coarse_count);
  for (VertexId u = 0; u < n; ++u) {
    const VertexId cu = fine_to_coarse[u];
    const auto known = coarse.neighbors(cu);
    for (std::uint32_t i = 0; i < known.size(); ++i) {
      where[known[i].vertex] = {u, i, twin[first[cu] + i]};
    }
    for (const Neighbor& nb : g.neighbors(u)) {
      if (nb.vertex <= u) continue;  // visit each fine edge once
      const VertexId cv = fine_to_coarse[nb.vertex];
      if (cv == cu) continue;
      Where& w = where[cv];
      if (w.stamp == u) {
        coarse.add_to_edge(cu, w.at_cu, cv, w.at_cv, nb.weight);
        continue;
      }
      w = {u, static_cast<std::uint32_t>(coarse.neighbors(cu).size()),
           static_cast<std::uint32_t>(coarse.neighbors(cv).size())};
      twin[first[cu] + w.at_cu] = w.at_cv;
      twin[first[cv] + w.at_cv] = w.at_cu;
      coarse.add_unique_edge(cu, cv, nb.weight);
    }
  }
  return coarse;
}

CoarseLevel coarsen_once(const WeightedGraph& g, Rng& rng) {
  const std::size_t n = g.vertex_count();
  constexpr VertexId kUnmatched = static_cast<VertexId>(-1);
  std::vector<VertexId> match(n, kUnmatched);

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  // Heavy-edge matching.
  for (VertexId u : order) {
    if (match[u] != kUnmatched) continue;
    VertexId best = kUnmatched;
    Weight best_w = -1;
    for (const Neighbor& nb : g.neighbors(u)) {
      if (match[nb.vertex] == kUnmatched && nb.vertex != u &&
          nb.weight > best_w) {
        best = nb.vertex;
        best_w = nb.weight;
      }
    }
    if (best != kUnmatched) {
      match[u] = best;
      match[best] = u;
    } else {
      match[u] = u;  // stays singleton
    }
  }

  // Number coarse vertices: the lower-indexed endpoint of each pair owns it.
  std::vector<VertexId> fine_to_coarse(n, kUnmatched);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (fine_to_coarse[v] != kUnmatched) continue;
    const VertexId partner = match[v];
    fine_to_coarse[v] = next;
    if (partner != v) fine_to_coarse[partner] = next;
    ++next;
  }

  return CoarseLevel{contract(g, fine_to_coarse, next),
                     std::move(fine_to_coarse)};
}

std::vector<CoarseLevel> coarsen_to(const WeightedGraph& g,
                                    std::size_t target_vertices, Rng& rng) {
  std::vector<CoarseLevel> levels;
  const WeightedGraph* current = &g;
  while (current->vertex_count() > std::max<std::size_t>(target_vertices, 2)) {
    CoarseLevel level = coarsen_once(*current, rng);
    const std::size_t before = current->vertex_count();
    const std::size_t after = level.graph.vertex_count();
    if (after >= before || (before - after) * 10 < before) {
      break;  // matching stalled (e.g. star graphs); stop coarsening
    }
    levels.push_back(std::move(level));
    current = &levels.back().graph;
  }
  return levels;
}

}  // namespace lazyctrl::graph
