// The partitioning kernels as they were before the dense connectivity row
// and the O(1) coarse-edge table: a hash map of part connectivity per
// vertex visit, moves scanned in the map's iteration order, coarse edges
// added with WeightedGraph::add_edge, and the multilevel driver and
// bisection that run them. graph_test holds src/graph to these, result for
// result and bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory_resource>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "graph/bisection.h"
#include "graph/coarsening.h"
#include "graph/fm_refinement.h"
#include "graph/multilevel_partitioner.h"
#include "graph/partition.h"
#include "graph/weighted_graph.h"

namespace lazyctrl::graph::reference {

/// part -> edge weight from v into it, summed in neighbour order; its
/// iteration order decides gain ties.
class PartConnectivity {
 public:
  PartConnectivity(const WeightedGraph& g, const Partition& p, VertexId v) {
    for (const Neighbor& n : g.neighbors(v)) {
      conn_[p.assignment[n.vertex]] += n.weight;
    }
  }
  PartConnectivity(const PartConnectivity&) = delete;
  PartConnectivity& operator=(const PartConnectivity&) = delete;

  [[nodiscard]] Weight to(PartId part) const {
    const auto it = conn_.find(part);
    return it == conn_.end() ? 0 : it->second;
  }
  [[nodiscard]] auto begin() const { return conn_.begin(); }
  [[nodiscard]] auto end() const { return conn_.end(); }

 private:
  static constexpr std::size_t kArenaBytes = 4096;
  alignas(std::max_align_t) std::byte buffer_[kArenaBytes];
  std::pmr::monotonic_buffer_resource arena_{buffer_, kArenaBytes};
  std::pmr::unordered_map<PartId, Weight> conn_{&arena_};
};

inline Weight greedy_pass(const WeightedGraph& g, Partition& p,
                          const PartitionConstraints& c,
                          std::vector<Weight>& weights,
                          std::vector<VertexId>& order, Rng& rng) {
  rng.shuffle(order);
  Weight pass_gain = 0;
  for (VertexId v : order) {
    const PartId from = p.assignment[v];
    const PartConnectivity conn(g, p, v);
    const Weight internal = conn.to(from);
    PartId best_part = from;
    Weight best_gain = 0;
    const Weight vw = g.vertex_weight(v);
    for (const auto& [part, w] : conn) {
      if (part == from) continue;
      if (weights[part] + vw > c.max_part_weight) continue;
      const Weight gain = w - internal;
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_part = part;
      }
    }
    if (best_part != from) {
      weights[from] -= vw;
      weights[best_part] += vw;
      p.assignment[v] = best_part;
      pass_gain += best_gain;
    }
  }
  return pass_gain;
}

inline Weight fm_pass(const WeightedGraph& g, Partition& p,
                      const PartitionConstraints& c,
                      std::vector<Weight>& weights) {
  const std::size_t n = g.vertex_count();
  std::vector<char> moved(n, 0);
  struct Move {
    VertexId v;
    PartId from;
    PartId to;
  };
  std::vector<Move> sequence;
  Weight cum = 0, best_cum = 0;
  std::size_t best_len = 0;
  for (std::size_t step = 0; step < n; ++step) {
    VertexId best_v = 0;
    PartId best_dest = kUnassigned;
    Weight best_gain = -std::numeric_limits<Weight>::max();
    for (VertexId v = 0; v < n; ++v) {
      if (moved[v]) continue;
      const PartId from = p.assignment[v];
      const PartConnectivity conn(g, p, v);
      const Weight internal = conn.to(from);
      const Weight vw = g.vertex_weight(v);
      for (const auto& [part, w] : conn) {
        if (part == from) continue;
        if (weights[part] + vw > c.max_part_weight) continue;
        const Weight gain = w - internal;
        if (gain > best_gain) {
          best_gain = gain;
          best_v = v;
          best_dest = part;
        }
      }
    }
    if (best_dest == kUnassigned) break;
    const PartId from = p.assignment[best_v];
    const Weight vw = g.vertex_weight(best_v);
    weights[from] -= vw;
    weights[best_dest] += vw;
    p.assignment[best_v] = best_dest;
    moved[best_v] = 1;
    sequence.push_back({best_v, from, best_dest});
    cum += best_gain;
    if (cum > best_cum + 1e-12) {
      best_cum = cum;
      best_len = sequence.size();
    }
    if (cum < best_cum - 0.25 * (std::abs(best_cum) + 1.0) &&
        sequence.size() > best_len + 16) {
      break;
    }
  }
  for (std::size_t i = sequence.size(); i-- > best_len;) {
    const Move& m = sequence[i];
    const Weight vw = g.vertex_weight(m.v);
    weights[m.to] -= vw;
    weights[m.from] += vw;
    p.assignment[m.v] = m.from;
  }
  return best_cum;
}

inline Weight refine_partition(const WeightedGraph& g, Partition& p,
                               const PartitionConstraints& c,
                               const RefineOptions& o, Rng& rng) {
  const std::size_t n = g.vertex_count();
  if (n == 0 || p.part_count <= 1) return 0;
  std::vector<Weight> weights = part_weights(g, p);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  Weight total_gain = 0;
  for (int pass = 0; pass < o.max_passes; ++pass) {
    Weight pass_gain = reference::greedy_pass(g, p, c, weights, order, rng);
    if (n <= o.hill_climb_vertex_limit) pass_gain += reference::fm_pass(g, p, c, weights);
    total_gain += pass_gain;
    if (pass_gain <= 1e-12) break;
  }
  return total_gain;
}

inline std::vector<BoundedMove> plan_bounded_moves(
    const WeightedGraph& g, Partition& p, const PartitionConstraints& c,
    std::size_t max_moves, Weight min_gain = 0) {
  std::vector<BoundedMove> moves;
  const std::size_t n = g.vertex_count();
  if (n == 0 || p.part_count <= 1) return moves;
  std::vector<Weight> weights = part_weights(g, p);
  while (moves.size() < max_moves) {
    BoundedMove best;
    best.gain = min_gain;
    for (VertexId v = 0; v < n; ++v) {
      const PartId from = p.assignment[v];
      const PartConnectivity conn(g, p, v);
      const Weight internal = conn.to(from);
      const Weight vw = g.vertex_weight(v);
      for (const auto& [part, w] : conn) {
        if (part == from) continue;
        if (weights[part] + vw > c.max_part_weight) continue;
        const Weight gain = w - internal;
        if (gain > best.gain + 1e-12) best = {v, from, part, gain};
      }
    }
    if (best.to == kUnassigned) break;
    const Weight vw = g.vertex_weight(best.vertex);
    weights[best.from] -= vw;
    weights[best.to] += vw;
    p.assignment[best.vertex] = best.to;
    moves.push_back(best);
  }
  return moves;
}

inline bool repair_overweight(const WeightedGraph& g, Partition& p,
                              const PartitionConstraints& c, Rng& rng) {
  std::vector<Weight> weights = part_weights(g, p);
  std::vector<bool> frozen(weights.size(), false);
  bool all_single_fit = true;
  while (true) {
    PartId over = kUnassigned;
    for (PartId part = 0; part < weights.size(); ++part) {
      if (!frozen[part] && weights[part] > c.max_part_weight + 1e-9) {
        over = part;
        break;
      }
    }
    if (over == kUnassigned) break;
    std::vector<VertexId> members;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      if (p.assignment[v] == over) members.push_back(v);
    }
    if (members.size() == 1) {
      all_single_fit = false;
      frozen[over] = true;
      continue;
    }
    rng.shuffle(members);
    VertexId best_v = members.front();
    PartId best_dest = kUnassigned;
    Weight best_loss = std::numeric_limits<Weight>::max();
    for (VertexId v : members) {
      const Weight vw = g.vertex_weight(v);
      const PartConnectivity conn(g, p, v);
      const Weight internal = conn.to(over);
      for (PartId dest = 0; dest < weights.size(); ++dest) {
        if (dest == over || frozen[dest]) continue;
        if (weights[dest] + vw > c.max_part_weight) continue;
        const Weight loss = internal - conn.to(dest);
        if (loss < best_loss) {
          best_loss = loss;
          best_v = v;
          best_dest = dest;
        }
      }
    }
    if (best_dest == kUnassigned) {
      best_dest = static_cast<PartId>(p.part_count);
      ++p.part_count;
      weights.push_back(0);
      frozen.push_back(false);
      best_v = *std::min_element(members.begin(), members.end(),
                                 [&](VertexId a, VertexId b) {
                                   return g.vertex_weight(a) <
                                          g.vertex_weight(b);
                                 });
    }
    const Weight vw = g.vertex_weight(best_v);
    weights[over] -= vw;
    weights[best_dest] += vw;
    p.assignment[best_v] = best_dest;
  }
  return all_single_fit;
}

inline CoarseLevel coarsen_once(const WeightedGraph& g, Rng& rng) {
  const std::size_t n = g.vertex_count();
  constexpr VertexId kUnmatched = static_cast<VertexId>(-1);
  std::vector<VertexId> match(n, kUnmatched);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
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
      match[u] = u;
    }
  }
  std::vector<VertexId> fine_to_coarse(n, kUnmatched);
  VertexId next = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (fine_to_coarse[v] != kUnmatched) continue;
    const VertexId partner = match[v];
    fine_to_coarse[v] = next;
    if (partner != v) fine_to_coarse[partner] = next;
    ++next;
  }
  WeightedGraph coarse(next);
  std::vector<Weight> sums(next, 0);
  for (VertexId v = 0; v < n; ++v) {
    sums[fine_to_coarse[v]] += g.vertex_weight(v);
  }
  for (VertexId cv = 0; cv < next; ++cv) coarse.set_vertex_weight(cv, sums[cv]);
  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& nb : g.neighbors(u)) {
      if (nb.vertex <= u) continue;
      const VertexId cu = fine_to_coarse[u];
      const VertexId cv = fine_to_coarse[nb.vertex];
      if (cu != cv) coarse.add_edge(cu, cv, nb.weight);
    }
  }
  return CoarseLevel{std::move(coarse), std::move(fine_to_coarse)};
}

inline std::vector<CoarseLevel> coarsen_to(const WeightedGraph& g,
                                           std::size_t target_vertices,
                                           Rng& rng) {
  std::vector<CoarseLevel> levels;
  const WeightedGraph* current = &g;
  while (current->vertex_count() > std::max<std::size_t>(target_vertices, 2)) {
    CoarseLevel level = reference::coarsen_once(*current, rng);
    const std::size_t before = current->vertex_count();
    const std::size_t after = level.graph.vertex_count();
    if (after >= before || (before - after) * 10 < before) break;
    levels.push_back(std::move(level));
    current = &levels.back().graph;
  }
  return levels;
}

/// MultilevelPartitioner::initial_partition (region growing), unchanged.
inline Partition initial_partition(const WeightedGraph& g, std::size_t k,
                                   const PartitionConstraints& c, Rng& rng) {
  const std::size_t n = g.vertex_count();
  Partition p;
  p.assignment.assign(n, kUnassigned);
  p.part_count = k;
  const Weight balanced =
      g.total_vertex_weight() / static_cast<double>(std::max<std::size_t>(k, 1));
  const Weight target = std::min(c.max_part_weight, balanced * 1.1);
  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::size_t cursor = 0;
  std::vector<Weight> weights(k, 0);
  std::size_t assigned = 0;
  for (PartId part = 0; part < k && assigned < n; ++part) {
    while (cursor < n && p.assignment[order[cursor]] != kUnassigned) ++cursor;
    if (cursor >= n) break;
    const VertexId seed = order[cursor];
    p.assignment[seed] = part;
    weights[part] += g.vertex_weight(seed);
    ++assigned;
    std::vector<Weight> conn(n, 0);
    for (const Neighbor& nb : g.neighbors(seed)) conn[nb.vertex] += nb.weight;
    while (weights[part] < target && assigned < n) {
      VertexId best = static_cast<VertexId>(-1);
      Weight best_conn = -1;
      for (VertexId v = 0; v < n; ++v) {
        if (p.assignment[v] != kUnassigned || conn[v] <= 0) continue;
        if (weights[part] + g.vertex_weight(v) > c.max_part_weight) continue;
        if (conn[v] > best_conn) {
          best_conn = conn[v];
          best = v;
        }
      }
      if (best == static_cast<VertexId>(-1)) break;
      p.assignment[best] = part;
      weights[part] += g.vertex_weight(best);
      ++assigned;
      for (const Neighbor& nb : g.neighbors(best)) conn[nb.vertex] += nb.weight;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (p.assignment[v] != kUnassigned) continue;
    const Weight vw = g.vertex_weight(v);
    PartId best_part = kUnassigned;
    Weight best_conn = 0;
    std::vector<Weight> conn(p.part_count, 0);
    for (const Neighbor& nb : g.neighbors(v)) {
      const PartId q = p.assignment[nb.vertex];
      if (q != kUnassigned) conn[q] += nb.weight;
    }
    for (PartId q = 0; q < p.part_count; ++q) {
      if (weights[q] + vw > c.max_part_weight) continue;
      if (conn[q] > best_conn) {
        best_conn = conn[q];
        best_part = q;
      }
    }
    if (best_part == kUnassigned) {
      Weight lightest = std::numeric_limits<Weight>::max();
      for (PartId q = 0; q < p.part_count; ++q) {
        if (weights[q] + vw <= c.max_part_weight && weights[q] < lightest) {
          lightest = weights[q];
          best_part = q;
        }
      }
    }
    if (best_part == kUnassigned) {
      best_part = static_cast<PartId>(p.part_count);
      ++p.part_count;
      weights.push_back(0);
    }
    p.assignment[v] = best_part;
    weights[best_part] += vw;
  }
  return p;
}

/// MultilevelPartitioner::partition over the kernels above.
inline Partition partition(const WeightedGraph& g, std::size_t k,
                           const PartitionConstraints& c, Rng& rng,
                           const MlkpOptions& options = {}) {
  if (options.restarts > 1) {
    const MlkpOptions single{options.coarsen_target_per_part,
                             options.refine_passes, 1};
    Partition best;
    Weight best_cut = std::numeric_limits<Weight>::max();
    for (int attempt = 0; attempt < options.restarts; ++attempt) {
      Partition p = reference::partition(g, k, c, rng, single);
      const Weight cut = cut_weight(g, p);
      const bool feasible = is_feasible(g, p, c);
      const bool best_feasible =
          !best.assignment.empty() && is_feasible(g, best, c);
      if (best.assignment.empty() || (feasible && !best_feasible) ||
          (feasible == best_feasible && cut < best_cut)) {
        best = std::move(p);
        best_cut = cut;
      }
    }
    return best;
  }
  const std::size_t n = g.vertex_count();
  Partition result;
  if (n == 0) {
    result.part_count = 0;
    return result;
  }
  k = std::clamp<std::size_t>(k, 1, n);
  const RefineOptions refine_opts{options.refine_passes};
  const std::size_t coarsen_target =
      std::max<std::size_t>(k * options.coarsen_target_per_part, 2 * k);
  if (n <= coarsen_target) {
    result = reference::initial_partition(g, k, c, rng);
    reference::repair_overweight(g, result, c, rng);
    reference::refine_partition(g, result, c, refine_opts, rng);
    reference::repair_overweight(g, result, c, rng);
    compact_parts(result);
    return result;
  }
  std::vector<CoarseLevel> levels = reference::coarsen_to(g, coarsen_target, rng);
  const WeightedGraph& coarsest = levels.empty() ? g : levels.back().graph;
  Partition p = reference::initial_partition(coarsest, k, c, rng);
  reference::repair_overweight(coarsest, p, c, rng);
  reference::refine_partition(coarsest, p, c, refine_opts, rng);
  for (std::size_t i = levels.size(); i-- > 0;) {
    const WeightedGraph& fine = (i == 0) ? g : levels[i - 1].graph;
    Partition projected;
    projected.part_count = p.part_count;
    projected.assignment.resize(fine.vertex_count());
    for (VertexId v = 0; v < fine.vertex_count(); ++v) {
      projected.assignment[v] = p.assignment[levels[i].fine_to_coarse[v]];
    }
    reference::repair_overweight(fine, projected, c, rng);
    reference::refine_partition(fine, projected, c, refine_opts, rng);
    p = std::move(projected);
  }
  reference::repair_overweight(g, p, c, rng);
  compact_parts(p);
  return p;
}

inline BisectionResult min_bisection(const WeightedGraph& g,
                                     Weight max_side_weight, Rng& rng) {
  BisectionResult result;
  const std::size_t n = g.vertex_count();
  if (n == 0) return result;
  const PartitionConstraints c{max_side_weight};
  Partition p = reference::partition(g, 2, c, rng);
  result.side.assign(n, 0);
  if (p.part_count <= 2) {
    for (VertexId v = 0; v < n; ++v) result.side[v] = p.assignment[v];
  } else {
    std::vector<Weight> weights = part_weights(g, p);
    Weight side_w[2] = {weights.size() > 0 ? weights[0] : 0,
                        weights.size() > 1 ? weights[1] : 0};
    std::vector<PartId> map(p.part_count, 0);
    if (p.part_count > 1) map[1] = 1;
    for (PartId q = 2; q < p.part_count; ++q) {
      const PartId target = side_w[0] <= side_w[1] ? 0 : 1;
      map[q] = target;
      side_w[target] += weights[q];
    }
    for (VertexId v = 0; v < n; ++v) result.side[v] = map[p.assignment[v]];
  }
  Partition two;
  two.assignment = result.side;
  two.part_count = 2;
  result.cut_weight = cut_weight(g, two);
  return result;
}

}  // namespace lazyctrl::graph::reference
