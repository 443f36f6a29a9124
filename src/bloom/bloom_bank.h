// BloomBank: a keyed collection of Bloom filters, one per switch.
//
// This is the linear storage layout of the paper's G-FIB (§III-D2): one
// independent filter per group member, each summarising that member's
// L-FIB. A lookup probes every filter and returns the switches that
// *might* host the queried MAC (false positives possible, negatives
// exact). core::GFib keeps one bank per group and lets each member skip
// its own filter (`skip_slot`), which yields the paper's per-switch view
// of S-1 peer filters without storing S copies of it.
//
// Filters are stored in a vector sorted by SwitchId, so the hot-path scan
// is a linear pass in ascending id order: results come out deterministic
// with no per-query sort, and `query_into` appends into a caller-owned
// buffer so the steady-state datapath performs no allocation at all.
#pragma once

#include <cstddef>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/ids.h"
#include "common/mac.h"

namespace lazyctrl {

class BloomBank {
 public:
  explicit BloomBank(BloomParameters per_filter_params = {})
      : params_(per_filter_params) {}

  /// Installs (or replaces) the filter summarising `peer`'s host set.
  void set_filter(SwitchId peer, BloomFilter filter);

  /// Builds and installs a filter for `peer` from its host MAC list.
  void build_filter(SwitchId peer, const std::vector<MacAddress>& hosts);

  void clear();

  /// Appends the matching peers (ascending id order) to `out` without
  /// clearing it, reusing the caller's capacity — the ONLY query form, so
  /// the steady-state datapath is allocation-free by construction (the
  /// old vector-returning query() allocated per call and is gone).
  /// `h` is the precomputed hash of the queried MAC, so probing S-1
  /// filters costs one mixing pass instead of S-1. The filter at
  /// `skip_slot` (a member's own, see slot_of) is not probed.
  void query_into(BloomHash h, std::vector<SwitchId>& out,
                  std::size_t skip_slot = kNoSlot) const {
    // Two plain scans around the skipped filter keep a per-filter slot
    // compare out of the loop.
    const Entry* const end = filters_.data() + filters_.size();
    const Entry* const skip =
        skip_slot < filters_.size() ? filters_.data() + skip_slot : end;
    scan(h, filters_.data(), skip, out);
    if (skip != end) scan(h, skip + 1, end, out);
  }

  /// Index of `peer`'s filter in ascending id order, or kNoSlot when the
  /// bank holds no filter for it.
  [[nodiscard]] std::size_t slot_of(SwitchId peer) const;
  /// Appends the installed peers (ascending id order) to `out`.
  void peers_into(std::vector<SwitchId>& out) const {
    for (const Entry& e : filters_) out.push_back(e.peer);
  }
  [[nodiscard]] const BloomFilter* filter(SwitchId peer) const;
  [[nodiscard]] std::size_t filter_count() const noexcept {
    return filters_.size();
  }
  /// Total bit-array storage across all filters, in bytes.
  [[nodiscard]] std::size_t storage_bytes() const noexcept;
  [[nodiscard]] const BloomParameters& params() const noexcept {
    return params_;
  }

 private:
  struct Entry {
    SwitchId peer;
    BloomFilter filter;
  };

  [[nodiscard]] const Entry* find(SwitchId peer) const;
  static void scan(BloomHash h, const Entry* first, const Entry* last,
                   std::vector<SwitchId>& out) {
    for (; first != last; ++first) {
      if (first->filter.may_contain(h)) out.push_back(first->peer);
    }
  }

  BloomParameters params_;
  std::vector<Entry> filters_;  // kept sorted by ascending peer id
};

}  // namespace lazyctrl
