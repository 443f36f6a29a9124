#include "dgm/regrouper.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>

#include "graph/bisection.h"
#include "graph/fm_refinement.h"
#include "graph/partition.h"

namespace lazyctrl::dgm {

namespace {

using GroupPair = std::pair<std::uint32_t, std::uint32_t>;

/// Inter-group weight per group pair (ordered map for determinism).
std::map<GroupPair, double> group_pair_weights(
    const graph::WeightedGraph& w, const core::Grouping& g) {
  std::map<GroupPair, double> weights;
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

std::vector<std::size_t> group_sizes(const core::Grouping& g) {
  std::vector<std::size_t> sizes(g.group_count, 0);
  for (std::uint32_t x : g.switch_to_group) ++sizes[x];
  return sizes;
}

/// Ranked (weight, pair) list, heaviest first; deterministic order.
std::vector<std::pair<double, GroupPair>> ranked_pairs(
    const std::map<GroupPair, double>& weights) {
  std::vector<std::pair<double, GroupPair>> ranked;
  ranked.reserve(weights.size());
  for (const auto& [pair, w] : weights) ranked.push_back({w, pair});
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const auto& x, const auto& y) { return x.first > y.first; });
  return ranked;
}

}  // namespace

MigrationPlan IncrementalRegrouper::plan(const core::Grouping& current,
                                         const graph::WeightedGraph& intensity,
                                         Rng& rng) const {
  MigrationPlan plan;
  plan.before = current;
  plan.after = current;
  plan.group_size_limit = options_.group_size_limit;
  plan.inter_before = core::inter_group_intensity(intensity, current);
  plan.inter_after = plan.inter_before;
  if (current.group_count < 2 ||
      current.switch_to_group.size() != intensity.vertex_count()) {
    return plan;
  }

  core::Grouping work = current;
  const auto limit = static_cast<double>(options_.group_size_limit);
  const graph::PartitionConstraints constraints{limit};

  // --- Phase 1: bounded single-switch migrations (FM boundary gains). ---
  // The gain floor scales with the mean incident weight so noise-level
  // affinities never cause migrations.
  const double mean_incident =
      intensity.vertex_count() > 0
          ? 2.0 * intensity.total_edge_weight() /
                static_cast<double>(intensity.vertex_count())
          : 0.0;
  const double move_gain_floor = options_.min_gain_fraction * mean_incident;
  {
    graph::Partition p{work.switch_to_group, work.group_count};
    const auto moves = graph::plan_bounded_moves(
        intensity, p, constraints, options_.max_moves, move_gain_floor);
    for (const graph::BoundedMove& m : moves) {
      plan.moves.push_back({SwitchId{m.vertex}, GroupId{m.from},
                            GroupId{m.to}, m.gain});
    }
    work.switch_to_group = std::move(p.assignment);
  }

  // Groups already restructured this round are excluded from further pair
  // operations — keeps each round's actions disjoint and its cost additive.
  std::vector<bool> used(work.group_count, false);

  // --- Phase 2: merges of under-full groups with significant mutual
  // traffic (zero-cut absorption). ---
  {
    auto weights = group_pair_weights(intensity, work);
    double inter_total = 0;
    for (const auto& [pair, w] : weights) inter_total += w;
    const double merge_floor = options_.min_gain_fraction * inter_total;
    auto sizes = group_sizes(work);
    std::size_t merges = 0;
    for (const auto& [w, pair] : ranked_pairs(weights)) {
      if (merges >= options_.max_merges) break;
      if (w < merge_floor || w <= 0) break;  // ranked: the rest is lighter
      if (used[pair.first] || used[pair.second]) continue;
      if (static_cast<double>(sizes[pair.first] + sizes[pair.second]) >
          limit) {
        continue;
      }
      for (std::uint32_t& g : work.switch_to_group) {
        if (g == pair.second) g = pair.first;
      }
      sizes[pair.first] += sizes[pair.second];
      sizes[pair.second] = 0;
      used[pair.first] = used[pair.second] = true;
      plan.merges.push_back({GroupId{pair.first}, GroupId{pair.second}, w});
      ++merges;
    }
  }

  // --- Phase 3: merge-and-split of heavy pairs too big to merge (SGI
  // IncUpdate's operator, §III-C2). ---
  {
    const auto weights = group_pair_weights(intensity, work);
    const auto sizes = group_sizes(work);
    std::size_t splits = 0, attempts = 0;
    const std::size_t max_attempts = 4 * options_.max_splits;
    for (const auto& [w, pair] : ranked_pairs(weights)) {
      if (splits >= options_.max_splits || attempts >= max_attempts) break;
      if (w <= 0) break;
      if (used[pair.first] || used[pair.second]) continue;
      if (static_cast<double>(sizes[pair.first] + sizes[pair.second]) <=
          limit) {
        continue;  // phase 2 already judged plain merges
      }
      ++attempts;

      // Union subgraph with dense local ids.
      std::vector<graph::VertexId> vertices;
      for (graph::VertexId v = 0; v < work.switch_to_group.size(); ++v) {
        if (work.switch_to_group[v] == pair.first ||
            work.switch_to_group[v] == pair.second) {
          vertices.push_back(v);
        }
      }
      std::unordered_map<graph::VertexId, graph::VertexId> to_local;
      to_local.reserve(vertices.size());
      for (graph::VertexId i = 0; i < vertices.size(); ++i) {
        to_local[vertices[i]] = i;
      }
      graph::WeightedGraph sub(vertices.size());
      double cut_before = 0;
      for (graph::VertexId v : vertices) {
        for (const graph::Neighbor& n : intensity.neighbors(v)) {
          auto it = to_local.find(n.vertex);
          if (it == to_local.end() || n.vertex <= v) continue;
          sub.add_unique_edge(to_local[v], it->second, n.weight);
          if (work.switch_to_group[v] != work.switch_to_group[n.vertex]) {
            cut_before += n.weight;
          }
        }
      }

      const graph::BisectionResult split =
          graph::min_bisection(sub, limit, rng);
      const double required =
          cut_before * (1.0 - options_.min_gain_fraction);
      if (split.cut_weight >= required - 1e-12) continue;
      double side_w[2] = {0, 0};
      for (graph::VertexId i = 0; i < vertices.size(); ++i) {
        side_w[split.side[i]] += sub.vertex_weight(i);
      }
      if (side_w[0] > limit + 1e-9 || side_w[1] > limit + 1e-9) continue;

      for (graph::VertexId i = 0; i < vertices.size(); ++i) {
        work.switch_to_group[vertices[i]] =
            split.side[i] == 0 ? pair.first : pair.second;
      }
      used[pair.first] = used[pair.second] = true;
      plan.splits.push_back({GroupId{pair.first}, GroupId{pair.second},
                             cut_before, split.cut_weight});
      ++splits;
    }
  }

  if (plan.empty()) return plan;  // after == before, nothing touched

  plan.after = std::move(work);
  plan.after.compact();
  plan.inter_after = core::inter_group_intensity(intensity, plan.after);

  // Touched groups (after numbering): member set differs from the before
  // group the members came from. G-FIB content depends only on membership,
  // so an identical set needs no resync even if its id moved.
  const auto before_members = plan.before.members();
  const auto after_members = plan.after.members();
  for (std::uint32_t gi = 0; gi < after_members.size(); ++gi) {
    const auto& members = after_members[gi];
    if (members.empty()) continue;
    const std::uint32_t b =
        plan.before.switch_to_group[members.front().value()];
    if (before_members[b] != members) {
      plan.touched.push_back(GroupId{gi});
    }
  }
  return plan;
}

}  // namespace lazyctrl::dgm
