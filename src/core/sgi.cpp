#include "core/sgi.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_map>

#include "graph/bisection.h"
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

namespace {

/// Inter-group weight per group pair, from the recent intensity graph.
std::map<std::pair<std::uint32_t, std::uint32_t>, double> pair_weights(
    const graph::WeightedGraph& w, const Grouping& g) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> weights;
  for (graph::VertexId u = 0; u < w.vertex_count(); ++u) {
    for (const graph::Neighbor& n : w.neighbors(u)) {
      if (n.vertex <= u) continue;
      const std::uint32_t ga = g.switch_to_group[u];
      const std::uint32_t gb = g.switch_to_group[n.vertex];
      if (ga == gb) continue;
      weights[{std::min(ga, gb), std::max(ga, gb)}] += n.weight;
    }
  }
  return weights;
}

}  // namespace

double Sgi::merge_and_split(Grouping& grouping, std::uint32_t a,
                            std::uint32_t b, const graph::WeightedGraph& recent,
                            Rng& rng) const {
  // Collect the union's vertices and index them densely.
  std::vector<graph::VertexId> vertices;
  for (graph::VertexId v = 0; v < grouping.switch_to_group.size(); ++v) {
    if (grouping.switch_to_group[v] == a || grouping.switch_to_group[v] == b) {
      vertices.push_back(v);
    }
  }
  if (vertices.size() < 2) return 0.0;

  std::unordered_map<graph::VertexId, graph::VertexId> to_local;
  to_local.reserve(vertices.size());
  for (graph::VertexId i = 0; i < vertices.size(); ++i) {
    to_local[vertices[i]] = i;
  }

  // Current cut between the two groups (within the union subgraph).
  graph::WeightedGraph sub(vertices.size());
  double current_cut = 0;
  for (graph::VertexId v : vertices) {
    for (const graph::Neighbor& n : recent.neighbors(v)) {
      auto it = to_local.find(n.vertex);
      if (it == to_local.end() || n.vertex <= v) continue;
      sub.add_unique_edge(to_local[v], it->second, n.weight);
      if (grouping.switch_to_group[v] != grouping.switch_to_group[n.vertex]) {
        current_cut += n.weight;
      }
    }
  }

  const auto limit = static_cast<double>(options_.group_size_limit);
  graph::BisectionResult split = graph::min_bisection(sub, limit, rng);
  const double required =
      current_cut * (1.0 - options_.min_improvement_fraction);
  if (split.cut_weight >= required - 1e-12) return 0.0;  // not significant

  // Verify feasibility: both sides within the size limit.
  double side_w[2] = {0, 0};
  for (graph::VertexId i = 0; i < vertices.size(); ++i) {
    side_w[split.side[i]] += sub.vertex_weight(i);
  }
  if (side_w[0] > limit + 1e-9 || side_w[1] > limit + 1e-9) return 0.0;

  // Commit: side 0 keeps id `a`, side 1 becomes id `b`.
  for (graph::VertexId i = 0; i < vertices.size(); ++i) {
    grouping.switch_to_group[vertices[i]] = split.side[i] == 0 ? a : b;
  }
  return current_cut - split.cut_weight;
}

Sgi::UpdateResult Sgi::incremental_update(Grouping& grouping,
                                          const graph::WeightedGraph& recent,
                                          Rng& rng) const {
  UpdateResult result;
  result.inter_group_before = inter_group_intensity(recent, grouping);
  result.inter_group_after = result.inter_group_before;
  if (grouping.group_count < 2) return result;

  std::vector<bool> touched(grouping.group_count, false);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    auto weights = pair_weights(recent, grouping);
    if (weights.empty()) break;

    // Rank group pairs by inter-group weight, heaviest first.
    std::vector<std::pair<double, std::pair<std::uint32_t, std::uint32_t>>>
        ranked;
    ranked.reserve(weights.size());
    for (const auto& [pair, w] : weights) ranked.push_back({w, pair});
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& x, const auto& y) { return x.first > y.first; });

    // Work down the ranked list until `batch` successful merge/splits (the
    // heaviest pair is not always improvable — its cut can be inherent).
    // Disjointness keeps batched pairs independent (appendix B).
    const int batch = options_.parallel ? options_.parallel_batch : 1;
    const int max_attempts = 4 * batch;
    std::vector<bool> used(grouping.group_count, false);
    double improvement = 0;
    int successes = 0;
    int attempts = 0;
    for (const auto& [w, pair] : ranked) {
      if (successes >= batch || attempts >= max_attempts) break;
      if (used[pair.first] || used[pair.second]) continue;
      used[pair.first] = used[pair.second] = true;
      ++attempts;
      const double delta =
          merge_and_split(grouping, pair.first, pair.second, recent, rng);
      if (delta > 0) {
        touched[pair.first] = touched[pair.second] = true;
        improvement += delta;
        ++successes;
      }
    }
    ++result.iterations;
    if (improvement <= 0) break;  // controller load can no longer be reduced
  }

  result.inter_group_after = inter_group_intensity(recent, grouping);
  for (std::uint32_t g = 0; g < touched.size(); ++g) {
    if (touched[g]) result.touched_groups.push_back(GroupId{g});
  }
  return result;
}

}  // namespace lazyctrl::core
