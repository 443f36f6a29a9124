#include "workload/intensity.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <utility>

namespace lazyctrl::workload {

namespace {

/// Flow counts per switch pair: a power-of-two open-addressing table
/// (linear probing; key 0 marks an empty slot, and a pair key is never 0)
/// plus the keys in the order they were first counted.
class PairCounts {
 public:
  void add(std::uint64_t key) {
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) {
        ++s.count;
        return;
      }
      if (s.key != 0) continue;
      if ((order_.size() + 1) * 4 > slots_.size() * 3) break;  // 3/4 full
      s = {key, 1};
      order_.push_back(key);
      return;
    }
    grow();
    add(key);
  }

  /// The distinct keys, in the order they were first counted.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const noexcept {
    return order_;
  }

  [[nodiscard]] std::uint64_t count(std::uint64_t key) const {
    for (std::size_t i = slot_of(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].count;
      if (slots_[i].key == 0) return 0;
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t count = 0;
  };

  /// Fibonacci hashing: the product's high bits depend on every key bit.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    mask_ = slots_.size() - 1;
    --shift_;
    for (const Slot& s : old) {
      if (s.key == 0) continue;
      std::size_t i = slot_of(s.key);
      while (slots_[i].key != 0) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  static constexpr int kInitialBits = 10;
  std::vector<Slot> slots_ =
      std::vector<Slot>(std::size_t{1} << kInitialBits);
  std::size_t mask_ = slots_.size() - 1;
  int shift_ = 64 - kInitialBits;
  std::vector<std::uint64_t> order_;
};

}  // namespace

graph::WeightedGraph build_intensity_graph(const Trace& trace,
                                           const topo::Topology& topology,
                                           SimTime from, SimTime to) {
  assert(to > from);
  const std::size_t n = topology.switch_count();
  graph::WeightedGraph g(n);
  const double window_sec = to_seconds(to - from);

  // The trace is sorted by start, so [from, to) is one run of flows.
  const auto starts_before = [](const Flow& f, SimTime t) {
    return f.start < t;
  };
  const auto first = std::lower_bound(trace.flows.begin(), trace.flows.end(),
                                      from, starts_before);
  const auto last =
      std::lower_bound(first, trace.flows.end(), to, starts_before);

  std::vector<std::uint32_t> switch_of;
  switch_of.reserve(topology.host_count());
  for (const topo::HostInfo& h : topology.hosts()) {
    switch_of.push_back(h.attached_switch.value());
  }

  PairCounts counts;
  for (auto f = first; f != last; ++f) {
    std::uint32_t a = switch_of.at(f->src.value());
    std::uint32_t b = switch_of.at(f->dst.value());
    if (a == b) continue;  // same-switch traffic never leaves the edge
    if (a < b) std::swap(a, b);
    counts.add((static_cast<std::uint64_t>(a) << 32) | b);
  }

  // Adjacency order is part of the result: the partitioner's tie-breaks
  // and floating-point sums follow it. Edges are added in the iteration
  // order of a std::unordered_map given the pairs in first-seen order,
  // which is the order a per-flow count into that map gives: its layout
  // depends only on the keys and the order they went in. Never reserve()
  // it: that changes its bucket count.
  std::unordered_map<std::uint64_t, double> switch_pair_flows;
  for (const std::uint64_t key : counts.keys()) {
    switch_pair_flows.emplace(key, static_cast<double>(counts.count(key)));
  }
  for (const auto& [key, flows] : switch_pair_flows) {
    const auto hi = static_cast<graph::VertexId>(key >> 32);
    const auto lo = static_cast<graph::VertexId>(key & 0xFFFFFFFF);
    g.add_unique_edge(lo, hi, flows / window_sec);
  }
  return g;
}

graph::WeightedGraph build_intensity_graph(const Trace& trace,
                                           const topo::Topology& topology) {
  return build_intensity_graph(trace, topology, 0,
                               std::max<SimTime>(trace.horizon, 1));
}

}  // namespace lazyctrl::workload
