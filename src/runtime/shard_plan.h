// Shard plan: the switch -> shard assignment of the sharded runtime.
//
// Edge groups are the paper's unit of traffic locality, so they are the
// unit of parallelism too: a plan never splits a group across shards —
// every switch of a group pre-decides its flows on the same worker, which
// keeps designated-switch and G-FIB state single-owner. Groups are packed onto shards with a greedy longest-
// processing-time heuristic weighted by member count; when the network is
// ungrouped (OpenFlow baseline, or LazyCtrl before bootstrap), switches
// are split into contiguous, equal ranges instead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/sgi.h"

namespace lazyctrl::runtime {

class ShardPlan {
 public:
  /// Builds the assignment for `switch_count` switches over at most
  /// `requested_shards` shards. The effective shard count is clamped to
  /// the number of groups (or of switches when `grouping` is empty) — a
  /// shard without any switch would only burn a worker.
  ShardPlan(std::size_t switch_count, const core::Grouping& grouping,
            std::size_t requested_shards);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_count_;
  }
  [[nodiscard]] std::uint32_t shard_of(SwitchId sw) const {
    return shard_of_switch_[sw.value()];
  }
  /// Switches assigned to shard `s` (ascending id order).
  [[nodiscard]] std::size_t shard_size(std::size_t s) const {
    return shard_sizes_[s];
  }

 private:
  std::size_t shard_count_ = 1;
  std::vector<std::uint32_t> shard_of_switch_;
  std::vector<std::size_t> shard_sizes_;
};

}  // namespace lazyctrl::runtime
