#include "dgm/regrouper.h"

#include <utility>

#include "graph/fm_refinement.h"
#include "graph/partition.h"

namespace lazyctrl::dgm {

namespace {

std::vector<std::size_t> group_sizes(const core::Grouping& g) {
  std::vector<std::size_t> sizes(g.group_count, 0);
  for (std::uint32_t x : g.switch_to_group) ++sizes[x];
  return sizes;
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
    const core::RankedGroupPairs ranked =
        core::ranked_group_pairs(intensity, work);
    const double merge_floor = options_.min_gain_fraction * ranked.total;
    auto sizes = group_sizes(work);
    std::size_t merges = 0;
    for (const core::GroupPair& pair : ranked.pairs) {
      if (merges >= options_.max_merges) break;
      // Ranked: the rest is lighter.
      if (pair.weight < merge_floor || pair.weight <= 0) break;
      if (used[pair.a] || used[pair.b]) continue;
      if (static_cast<double>(sizes[pair.a] + sizes[pair.b]) > limit) {
        continue;
      }
      for (std::uint32_t& g : work.switch_to_group) {
        if (g == pair.b) g = pair.a;
      }
      sizes[pair.a] += sizes[pair.b];
      sizes[pair.b] = 0;
      used[pair.a] = used[pair.b] = true;
      plan.merges.push_back({GroupId{pair.a}, GroupId{pair.b}, pair.weight});
      ++merges;
    }
  }

  // --- Phase 3: merge-and-split of heavy pairs too big to merge (SGI
  // IncUpdate's operator, §III-C2). ---
  {
    const auto sizes = group_sizes(work);
    std::size_t splits = 0, attempts = 0;
    const std::size_t max_attempts = 4 * options_.max_splits;
    for (const core::GroupPair& pair :
         core::ranked_group_pairs(intensity, work).pairs) {
      if (splits >= options_.max_splits || attempts >= max_attempts) break;
      if (pair.weight <= 0) break;
      if (used[pair.a] || used[pair.b]) continue;
      if (static_cast<double>(sizes[pair.a] + sizes[pair.b]) <= limit) {
        continue;  // phase 2 already judged plain merges
      }
      ++attempts;
      const core::MergeSplit split = core::merge_and_split(
          work, pair.a, pair.b, intensity, options_.group_size_limit,
          options_.min_gain_fraction, rng);
      if (!split.committed) continue;
      used[pair.a] = used[pair.b] = true;
      plan.splits.push_back({GroupId{pair.a}, GroupId{pair.b},
                             split.cut_before, split.cut_after});
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
