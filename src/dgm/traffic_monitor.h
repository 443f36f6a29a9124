// TrafficMonitor: decayed inter-switch traffic-matrix estimation.
//
// The first stage of the Dynamic Group Maintenance (DGM) pipeline, and the
// only holder of switch-pair counts. Every cross-switch flow is counted
// straight into the current window per unordered switch pair — the
// aggregate the switches' state advertisements deliver once per stats
// window (the paper's state advertisement path, §III-B3) — and the monitor
// folds each closed window into a sliding-window EWMA per pair. Recording
// is one probe of a flat open-addressing table per flow; the decayed
// estimate is one key-sorted vector, read in order as the live intensity
// graph the regrouper plans against and split into intra-/inter-group
// mass for the drift detector.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/sgi.h"
#include "graph/weighted_graph.h"

namespace lazyctrl::ckpt {
class StateAccess;
}

namespace lazyctrl::dgm {

struct TrafficMonitorOptions {
  /// Width of one accumulation window (matches the stats window driving
  /// `roll_window` calls); converts counts to flows/sec intensities.
  SimDuration window = 1 * kMinute;
  /// Per-window EWMA decay: each closed window contributes (1 - decay) of
  /// the estimate, so the effective horizon is window / (1 - decay).
  double ewma_decay = 0.85;
  /// Decayed pair estimates below this are dropped so the matrix stays
  /// sparse under churny workloads.
  double prune_threshold = 1e-3;
};

class TrafficMonitor {
 public:
  TrafficMonitor(std::size_t switch_count, TrafficMonitorOptions options);

  /// Accumulates `count` new flows between two distinct switches into the
  /// current window: one table probe; same-switch traffic is ignored (it
  /// never leaves the edge and cannot affect grouping).
  void record_flow(SwitchId src, SwitchId dst, std::uint64_t count = 1) {
    if (src == dst || count == 0) return;
    std::uint32_t lo = src.value(), hi = dst.value();
    if (lo > hi) std::swap(lo, hi);
    count_pair((static_cast<std::uint64_t>(hi) << 32) | lo, count);
  }

  /// Closes the current window: decays the EWMA estimate, folds the window
  /// counts in, and prunes negligible residue — one merge pass.
  void roll_window();

  /// Decayed total flow count represented in the estimate (the evidence
  /// mass drift decisions are gated on).
  [[nodiscard]] double flow_mass() const noexcept { return flow_mass_; }
  [[nodiscard]] std::size_t tracked_pairs() const noexcept {
    return ewma_.size();
  }

  /// The live intensity graph: vertices are switches, edge weights are
  /// decayed flows/sec between them. Ready for the regrouper/partitioner.
  [[nodiscard]] graph::WeightedGraph intensity_graph() const;

  /// Decayed cross-switch traffic mass split by a grouping.
  struct TrafficSplit {
    double intra = 0;  ///< both endpoints in the same group
    double inter = 0;  ///< endpoints in different groups
    [[nodiscard]] double total() const noexcept { return intra + inter; }
    /// Inter-group fraction of cross-switch traffic (0 when no traffic).
    [[nodiscard]] double inter_fraction() const noexcept {
      const double t = total();
      return t > 0 ? inter / t : 0.0;
    }
  };
  [[nodiscard]] TrafficSplit split(const core::Grouping& grouping) const;

 private:
  /// Snapshot codec (src/ckpt): carries the estimate and the current
  /// window as ascending (key, value) lists, plus flow_mass_.
  friend class lazyctrl::ckpt::StateAccess;

  // A pair key packs the higher switch id in its high 32 bits and the
  // lower one in its low 32 bits. The two ids differ, so a key is never
  // 0, and 0 marks an empty window slot.
  using Count = std::pair<std::uint64_t, std::uint64_t>;  ///< (key, flows)

  static constexpr std::size_t kMinWindowSlots = 16;

  /// Adds `count` to `key`'s slot of the window table.
  void count_pair(std::uint64_t key, std::uint64_t count);
  /// The current window's (key, count) entries in ascending key order.
  [[nodiscard]] std::vector<Count> sorted_window() const;

  std::size_t switch_count_;
  TrafficMonitorOptions options_;
  /// (pair key, decayed flow-count estimate), ascending key order.
  std::vector<std::pair<std::uint64_t, double>> ewma_;
  /// The current window: a power-of-two open-addressing table (linear
  /// probing) of (pair key, flow count). Emptied, never shrunk, by a roll.
  std::vector<Count> window_ = std::vector<Count>(kMinWindowSlots);
  std::size_t window_pairs_ = 0;
  double flow_mass_ = 0.0;
};

}  // namespace lazyctrl::dgm
