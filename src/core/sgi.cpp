#include "core/sgi.h"

#include <algorithm>
#include <utility>

#include "graph/bisection.h"
#include "graph/coarsening.h"
#include "graph/multilevel_partitioner.h"

namespace lazyctrl::core {

std::vector<std::vector<SwitchId>> Grouping::members() const {
  std::vector<std::vector<SwitchId>> out(group_count);
  for (std::uint32_t sw = 0; sw < switch_to_group.size(); ++sw) {
    out[switch_to_group[sw]].push_back(SwitchId{sw});
  }
  return out;
}

void Grouping::compact() {
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> remap(group_count, kNone);
  std::uint32_t next = 0;
  for (std::uint32_t& g : switch_to_group) {
    if (remap[g] == kNone) remap[g] = next++;
    g = remap[g];
  }
  group_count = next;
}

double inter_group_intensity(const graph::WeightedGraph& w,
                             const Grouping& g) {
  const double total = w.total_edge_weight();
  if (total <= 0) return 0.0;
  double inter = 0;
  for (graph::VertexId u = 0; u < w.vertex_count(); ++u) {
    for (const graph::Neighbor& n : w.neighbors(u)) {
      if (n.vertex > u &&
          g.switch_to_group[u] != g.switch_to_group[n.vertex]) {
        inter += n.weight;
      }
    }
  }
  return inter / total;
}

Grouping Sgi::initial_grouping(const graph::WeightedGraph& w, Rng& rng) const {
  const std::size_t n = w.vertex_count();
  Grouping grouping;
  grouping.switch_to_group.assign(n, 0);
  if (n == 0) return grouping;

  const std::size_t limit = std::max<std::size_t>(options_.group_size_limit, 1);
  const std::size_t k = (n + limit - 1) / limit;

  // IniGroup runs rarely (setup + major traffic shifts), so spend a few
  // multilevel restarts on grouping quality.
  graph::MultilevelPartitioner partitioner(graph::MlkpOptions{
      .restarts = 3});
  graph::PartitionConstraints constraints{static_cast<double>(limit)};
  graph::Partition p = partitioner.partition(w, k, constraints, rng);

  grouping.switch_to_group = std::move(p.assignment);
  grouping.group_count = p.part_count;
  return grouping;
}

RankedGroupPairs ranked_group_pairs(const graph::WeightedGraph& w,
                                    const Grouping& g) {
  // Contracting w by groups adds each pair's edges in the order a scan of
  // w's edges (u < v, in u's adjacency order) meets them.
  const graph::WeightedGraph groups =
      graph::contract(w, g.switch_to_group, g.group_count);
  RankedGroupPairs ranked;
  for (std::uint32_t a = 0; a < groups.vertex_count(); ++a) {
    for (const graph::Neighbor& n : groups.neighbors(a)) {
      if (n.vertex > a) ranked.pairs.push_back({a, n.vertex, n.weight});
    }
  }
  std::sort(ranked.pairs.begin(), ranked.pairs.end(),
            [](const GroupPair& x, const GroupPair& y) {
              return std::pair(x.a, x.b) < std::pair(y.a, y.b);
            });
  for (const GroupPair& pair : ranked.pairs) ranked.total += pair.weight;
  std::stable_sort(ranked.pairs.begin(), ranked.pairs.end(),
                   [](const GroupPair& x, const GroupPair& y) {
                     return x.weight > y.weight;
                   });
  return ranked;
}

MergeSplit merge_and_split(Grouping& grouping, std::uint32_t a,
                           std::uint32_t b, const graph::WeightedGraph& w,
                           std::size_t size_limit, double min_gain_fraction,
                           Rng& rng) {
  // Collect the union's vertices and index them densely.
  std::vector<graph::VertexId> vertices;
  for (graph::VertexId v = 0; v < grouping.switch_to_group.size(); ++v) {
    if (grouping.switch_to_group[v] == a || grouping.switch_to_group[v] == b) {
      vertices.push_back(v);
    }
  }
  MergeSplit result;
  if (vertices.size() < 2) return result;

  constexpr graph::VertexId kOutside = static_cast<graph::VertexId>(-1);
  std::vector<graph::VertexId> to_local(w.vertex_count(), kOutside);
  for (graph::VertexId i = 0; i < vertices.size(); ++i) {
    to_local[vertices[i]] = i;
  }

  // Current cut between the two groups (within the union subgraph).
  graph::WeightedGraph sub(vertices.size());
  for (graph::VertexId v : vertices) {
    for (const graph::Neighbor& n : w.neighbors(v)) {
      const graph::VertexId local = to_local[n.vertex];
      if (local == kOutside || n.vertex <= v) continue;
      sub.add_unique_edge(to_local[v], local, n.weight);
      if (grouping.switch_to_group[v] != grouping.switch_to_group[n.vertex]) {
        result.cut_before += n.weight;
      }
    }
  }
  result.cut_after = result.cut_before;

  const auto limit = static_cast<double>(size_limit);
  const graph::BisectionResult split = graph::min_bisection(sub, limit, rng);
  const double required = result.cut_before * (1.0 - min_gain_fraction);
  if (split.cut_weight >= required - 1e-12) return result;  // not significant

  // Verify feasibility: both sides within the size limit.
  double side_w[2] = {0, 0};
  for (graph::VertexId i = 0; i < vertices.size(); ++i) {
    side_w[split.side[i]] += sub.vertex_weight(i);
  }
  if (side_w[0] > limit + 1e-9 || side_w[1] > limit + 1e-9) return result;

  for (graph::VertexId i = 0; i < vertices.size(); ++i) {
    grouping.switch_to_group[vertices[i]] = split.side[i] == 0 ? a : b;
  }
  result.committed = true;
  result.cut_after = split.cut_weight;
  return result;
}

Sgi::UpdateResult Sgi::incremental_update(Grouping& grouping,
                                          const graph::WeightedGraph& recent,
                                          Rng& rng) const {
  UpdateResult result;
  result.inter_group_before = inter_group_intensity(recent, grouping);
  result.inter_group_after = result.inter_group_before;
  if (grouping.group_count < 2) return result;

  std::vector<bool> touched(grouping.group_count, false);
  const int batch = options_.parallel ? options_.parallel_batch : 1;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    const RankedGroupPairs ranked = ranked_group_pairs(recent, grouping);
    if (ranked.pairs.empty()) break;

    // Work down the ranked list until `batch` successful merge/splits (the
    // heaviest pair is not always improvable — its cut can be inherent).
    // Disjointness keeps batched pairs independent (appendix B).
    std::vector<bool> used(grouping.group_count, false);
    int successes = 0;
    int attempts = 0;
    for (const GroupPair& pair : ranked.pairs) {
      if (successes >= batch || attempts >= 4 * batch) break;
      if (used[pair.a] || used[pair.b]) continue;
      used[pair.a] = used[pair.b] = true;
      ++attempts;
      if (merge_and_split(grouping, pair.a, pair.b, recent,
                          options_.group_size_limit,
                          options_.min_improvement_fraction, rng)
              .committed) {
        touched[pair.a] = touched[pair.b] = true;
        ++successes;
      }
    }
    ++result.iterations;
    if (successes == 0) break;  // controller load can no longer be reduced
  }

  result.inter_group_after = inter_group_intensity(recent, grouping);
  for (std::uint32_t g = 0; g < touched.size(); ++g) {
    if (touched[g]) result.touched_groups.push_back(GroupId{g});
  }
  return result;
}

}  // namespace lazyctrl::core
