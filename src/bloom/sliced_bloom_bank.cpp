#include "bloom/sliced_bloom_bank.h"

#include <algorithm>
#include <bit>

namespace lazyctrl::bloom {

SlicedBloomBank::SlicedBloomBank(BloomParameters per_filter_params)
    : params_(per_filter_params),
      // Exactly BloomFilter's rounding: words = (max(bits,64)+63)/64,
      // bit_count = words * 64 — range_map must agree bit for bit.
      bits_(((std::max<std::size_t>(per_filter_params.bits, 64) + 63) / 64) *
            64),
      hashes_(std::clamp<std::size_t>(per_filter_params.hash_count, 1,
                                      kMaxHashes)) {}

std::size_t SlicedBloomBank::rank_of(SwitchId peer) const {
  return static_cast<std::size_t>(
      std::lower_bound(peers_.begin(), peers_.end(), peer) - peers_.begin());
}

std::size_t SlicedBloomBank::slot_of(SwitchId peer) const {
  const std::size_t r = rank_of(peer);
  return r < peers_.size() && peers_[r] == peer ? r : kNoSlot;
}

void SlicedBloomBank::set_row_stride(std::size_t new_stride) {
  const std::size_t old_stride = bytes_per_row_;
  if (new_stride == old_stride) return;
  if (slices_.empty()) {  // no data to re-layout yet
    bytes_per_row_ = new_stride;
    return;
  }
  // Strides only grow: each row's old bytes move to the front of its
  // wider slot, and the new tail bytes start zero.
  std::vector<std::uint8_t> laid(bits_ * new_stride + kTailPadding, 0);
  for (std::size_t r = 0; r < bits_; ++r) {
    std::copy_n(
        slices_.begin() + static_cast<std::ptrdiff_t>(r * old_stride),
        old_stride,
        laid.begin() + static_cast<std::ptrdiff_t>(r * new_stride));
  }
  slices_ = std::move(laid);
  bytes_per_row_ = new_stride;
}

void SlicedBloomBank::reserve_columns(std::size_t n) {
  const std::size_t target = std::max<std::size_t>(1, (n + 7) / 8);
  if (target > bytes_per_row_) set_row_stride(target);
}

void SlicedBloomBank::insert_column(std::size_t slot) {
  if (slices_.empty()) {
    slices_.assign(bits_ * bytes_per_row_ + kTailPadding, 0);
  }
  if (peers_.size() + 1 > bytes_per_row_ * 8) {
    set_row_stride(bytes_per_row_ + 1);
  }
  // Append fast path: every column at index >= the live count is all-zero
  // by invariant, so a new LAST column needs no shifting at all — the
  // bootstrap / full-rebuild path builds peers in ascending order to hit
  // this, making sequential builds O(set bits) with zero layout cost.
  if (slot == peers_.size()) return;
  const std::size_t stride = bytes_per_row_;
  const std::size_t n = peers_.size();  // live columns before the insert
  if (stride <= 8) {
    // Whole row fits one u64: insert a zero bit at `slot` with three
    // masks instead of a per-byte carry walk (one load/store per slice
    // row, ~16k rows per column op). Only `stride` bytes are stored back,
    // so the padding/next-row bytes the load sees are never written.
    const std::uint64_t low_mask = (std::uint64_t{1} << (slot & 63)) - 1;
    std::uint8_t* row = slices_.data();
    for (std::size_t r = 0; r < bits_; ++r, row += stride) {
      std::uint64_t w;
      std::memcpy(&w, row, sizeof(w));
      w = (w & low_mask) | ((w & ~low_mask) << 1);
      std::memcpy(row, &w, stride);
    }
    return;
  }
  const std::size_t byte = slot >> 3;
  const std::uint8_t low_mask =
      static_cast<std::uint8_t>((1u << (slot & 7)) - 1);
  const std::size_t top_byte = n >> 3;  // highest slot after the insert
  for (std::size_t r = 0; r < bits_; ++r) {
    std::uint8_t* row = slices_.data() + r * stride;
    for (std::size_t j = top_byte; j > byte; --j) {
      row[j] = static_cast<std::uint8_t>((row[j] << 1) | (row[j - 1] >> 7));
    }
    // Bits >= `slot & 7` shift up one; the new column's position is zero.
    row[byte] = static_cast<std::uint8_t>(
        (row[byte] & low_mask) |
        static_cast<std::uint8_t>((row[byte] & ~low_mask) << 1));
  }
}

void SlicedBloomBank::clear_column(std::size_t slot) {
  const std::size_t stride = bytes_per_row_;
  const std::uint8_t mask =
      static_cast<std::uint8_t>(~(1u << (slot & 7)));
  std::uint8_t* byte = slices_.data() + (slot >> 3);
  for (std::size_t r = 0; r < bits_; ++r, byte += stride) *byte &= mask;
}

void SlicedBloomBank::build_filter(SwitchId peer,
                                   const std::vector<MacAddress>& hosts) {
  const std::size_t slot = rank_of(peer);
  if (slot == peers_.size() || peers_[slot] != peer) {
    insert_column(slot);
    peers_.insert(peers_.begin() + static_cast<std::ptrdiff_t>(slot), peer);
  } else {
    clear_column(slot);
  }
  const std::size_t stride = bytes_per_row_;
  const std::size_t byte = slot >> 3;
  const std::uint8_t bit = static_cast<std::uint8_t>(1u << (slot & 7));
  for (const MacAddress mac : hosts) {
    const BloomHash h = BloomHash::of(mac);
    std::uint64_t idx = h.h1;
    for (std::size_t i = 0; i < hashes_; ++i) {
      slices_[range_map(idx) * stride + byte] |= bit;
      idx += h.h2;
    }
  }
}

void SlicedBloomBank::clear() {
  peers_.clear();
  bytes_per_row_ = 1;
  // Keep the heap buffer for the clear-then-rebuild cycle; the next
  // insert re-zeros exactly the range the (possibly reserved) stride
  // needs.
  slices_.clear();
}

}  // namespace lazyctrl::bloom
