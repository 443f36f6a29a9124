// G-FIB: Group Forwarding Information Base (paper §III-D2).
//
// In the paper every member of an S-switch group keeps S-1 Bloom filters,
// one replica of each peer's L-FIB. A filter is a pure function of its
// switch's host set, so those S-1 replicas are bit-identical at every
// member. The simulator therefore stores them once: core::Network owns
// one `GFib` bank per group holding every member's filter (own column
// included), and each EdgeSwitch reads it through a `GFibView` that masks
// the switch's own column out. A view answers exactly what the paper's
// per-switch G-FIB answers: the peers that may host a MAC, where an empty
// result proves the destination is outside the group and the packet must
// go to the controller. The paper's per-switch storage cost is priced
// analytically by bench_storage_overhead, not by this simulator memory.
//
// Two interchangeable storage layouts back the same query API (selected
// by Config.fib.layout): the linear per-switch BloomBank of the paper, and
// the bit-sliced SlicedBloomBank whose scan cost is O(k) cache lines
// regardless of group size. Both produce bit-identical candidate sets for
// the same BloomParameters/BloomHash (tests/sliced_bank_test.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "bloom/bloom_bank.h"
#include "bloom/sliced_bloom_bank.h"
#include "common/ids.h"
#include "common/mac.h"
#include "core/config.h"

namespace lazyctrl::core {

class GFib {
 public:
  explicit GFib(BloomParameters params = {},
                GFibLayout layout = GFibLayout::kSliced)
      : layout_(layout), bank_(params), sliced_(params) {}

  /// Installs/replaces the filter summarising `peer`'s attached MACs.
  void sync_peer(SwitchId peer, const std::vector<MacAddress>& peer_macs) {
    if (layout_ == GFibLayout::kSliced) {
      sliced_.build_filter(peer, peer_macs);
    } else {
      bank_.build_filter(peer, peer_macs);
    }
  }

  void clear() {
    if (layout_ == GFibLayout::kSliced) {
      sliced_.clear();
    } else {
      bank_.clear();
    }
  }

  /// Pre-sizes internal storage for `n` peers (a bulk rebuild hint; the
  /// sliced bank lays out its row stride once instead of per 8 appended
  /// columns). No-op for the linear layout.
  void reserve_peers(std::size_t n) {
    if (layout_ == GFibLayout::kSliced) sliced_.reserve_columns(n);
  }

  /// Allocation-free hot-path query: appends candidates (ascending id
  /// order) into `out`; `h` is the precomputed hash of the queried MAC so
  /// all filters share one mixing pass. The filter at `skip_slot` (see
  /// slot_of) is masked out — how a member skips its own column.
  void query_into(BloomHash h, std::vector<SwitchId>& out,
                  std::size_t skip_slot = kNoSlot) const {
    if (layout_ == GFibLayout::kSliced) {
      sliced_.query_into(h, out, skip_slot);
    } else {
      bank_.query_into(h, out, skip_slot);
    }
  }

  /// Index of `peer`'s filter in ascending id order, or kNoSlot when the
  /// bank holds none. Stable until the bank's peer set changes.
  [[nodiscard]] std::size_t slot_of(SwitchId peer) const {
    return layout_ == GFibLayout::kSliced ? sliced_.slot_of(peer)
                                          : bank_.slot_of(peer);
  }

  /// Appends the synced peers (ascending id order) to `out`.
  void peers_into(std::vector<SwitchId>& out) const {
    if (layout_ == GFibLayout::kSliced) {
      const std::vector<SwitchId>& p = sliced_.peers();
      out.insert(out.end(), p.begin(), p.end());
    } else {
      bank_.peers_into(out);
    }
  }

  [[nodiscard]] std::size_t peer_count() const noexcept {
    return layout_ == GFibLayout::kSliced ? sliced_.filter_count()
                                          : bank_.filter_count();
  }
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return layout_ == GFibLayout::kSliced ? sliced_.storage_bytes()
                                          : bank_.storage_bytes();
  }

 private:
  GFibLayout layout_;
  // Only the selected layout is ever populated; the idle one stays empty
  // (a BloomBank holds no storage until a filter is built, a
  // SlicedBloomBank none until a column is inserted).
  BloomBank bank_;
  bloom::SlicedBloomBank sliced_;
};

/// One switch's G-FIB: its group's bank with the switch's own column
/// masked out, so queries, peer lists and peer counts cover exactly the
/// S-1 peers. Non-owning; the switch is re-attached whenever its group's
/// bank is rebuilt or moves (the cached slot is only valid while the
/// bank's peer set is unchanged). A detached view has no peers.
class GFibView {
 public:
  GFibView() = default;
  GFibView(const GFib* bank, SwitchId self)
      : bank_(bank), slot_(bank != nullptr ? bank->slot_of(self) : kNoSlot) {}

  void query_into(BloomHash h, std::vector<SwitchId>& out) const {
    if (bank_ != nullptr) bank_->query_into(h, out, slot_);
  }
  /// Appends the peers (ascending id order, self excluded) to `out`.
  void peers_into(std::vector<SwitchId>& out) const {
    if (bank_ == nullptr) return;
    const std::size_t base = out.size();
    bank_->peers_into(out);
    if (slot_ != kNoSlot) {
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(base + slot_));
    }
  }
  [[nodiscard]] std::size_t peer_count() const noexcept {
    if (bank_ == nullptr) return 0;
    return bank_->peer_count() - (slot_ != kNoSlot ? 1 : 0);
  }

  /// The viewed bank (nullptr when detached) and the masked column.
  [[nodiscard]] const GFib* bank() const noexcept { return bank_; }
  [[nodiscard]] std::size_t own_slot() const noexcept { return slot_; }

 private:
  const GFib* bank_ = nullptr;
  std::size_t slot_ = kNoSlot;
};

}  // namespace lazyctrl::core
