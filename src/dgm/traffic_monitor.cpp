#include "dgm/traffic_monitor.h"

#include <algorithm>

namespace lazyctrl::dgm {

namespace {

/// SplitMix-style finalizer (as in core::LFib): the table size is a power
/// of two, so all the entropy must land in the low bits.
std::size_t slot_hash(std::uint64_t key) noexcept {
  key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9ULL;
  key = (key ^ (key >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::size_t>(key ^ (key >> 31));
}

}  // namespace

TrafficMonitor::TrafficMonitor(std::size_t switch_count,
                               TrafficMonitorOptions options)
    : switch_count_(switch_count), options_(options) {
  options_.ewma_decay = std::clamp(options_.ewma_decay, 0.0, 0.999);
}

void TrafficMonitor::count_pair(std::uint64_t key, std::uint64_t count) {
  const std::size_t mask = window_.size() - 1;
  for (std::size_t i = slot_hash(key) & mask;; i = (i + 1) & mask) {
    Count& slot = window_[i];
    if (slot.first == key) {
      slot.second += count;
      return;
    }
    if (slot.first != 0) continue;
    // Grow at 3/4 load so probe chains stay short.
    if ((window_pairs_ + 1) * 4 > window_.size() * 3) break;
    slot = {key, count};
    ++window_pairs_;
    return;
  }
  std::vector<Count> old(window_.size() * 2);
  old.swap(window_);
  window_pairs_ = 0;
  for (const auto& [k, c] : old) {
    if (k != 0) count_pair(k, c);
  }
  count_pair(key, count);
}

std::vector<TrafficMonitor::Count> TrafficMonitor::sorted_window() const {
  std::vector<Count> out;
  out.reserve(window_pairs_);
  for (const Count& slot : window_) {
    if (slot.first != 0) out.push_back(slot);
  }
  std::sort(out.begin(), out.end());  // keys are unique
  return out;
}

void TrafficMonitor::roll_window() {
  const std::vector<Count> window = sorted_window();
  std::fill(window_.begin(), window_.end(), Count{});
  window_pairs_ = 0;

  // One merge of two ascending lists. Per key: decay the estimate, then
  // add the window's count, and drop a value below the prune threshold.
  // flow_mass_ is decayed, then grows by each count in ascending key
  // order: a floating-point sum, so its order is part of the result.
  const double decay = options_.ewma_decay;
  flow_mass_ *= decay;
  std::vector<std::pair<std::uint64_t, double>> next;
  next.reserve(ewma_.size() + window.size());
  auto e = ewma_.begin();
  auto w = window.begin();
  while (e != ewma_.end() || w != window.end()) {
    const bool decayed =
        w == window.end() || (e != ewma_.end() && e->first <= w->first);
    const std::uint64_t key = decayed ? e->first : w->first;
    double value = decayed ? (e++)->second * decay : 0.0;
    if (w != window.end() && w->first == key) {
      const auto count = static_cast<double>((w++)->second);
      value += count;
      flow_mass_ += count;
    }
    if (!(value < options_.prune_threshold)) next.emplace_back(key, value);
  }
  ewma_ = std::move(next);
}

graph::WeightedGraph TrafficMonitor::intensity_graph() const {
  graph::WeightedGraph g(switch_count_);
  const double window_sec = to_seconds(options_.window);
  for (const auto& [key, value] : ewma_) {
    g.add_unique_edge(static_cast<graph::VertexId>(key & 0xFFFFFFFF),
                      static_cast<graph::VertexId>(key >> 32),
                      value / window_sec);
  }
  return g;
}

TrafficMonitor::TrafficSplit TrafficMonitor::split(
    const core::Grouping& grouping) const {
  TrafficSplit s;
  const std::vector<std::uint32_t>& group = grouping.switch_to_group;
  for (const auto& [key, value] : ewma_) {
    const std::uint64_t hi = key >> 32;
    const std::uint64_t lo = key & 0xFFFFFFFF;
    if (hi >= group.size()) continue;  // lo < hi
    if (group[lo] == group[hi]) {
      s.intra += value;
    } else {
      s.inter += value;
    }
  }
  return s;
}

}  // namespace lazyctrl::dgm
