// A flat set of 64-bit host-pair keys for the trace generators' "have
// these two hosts communicated yet?" checks.
//
// A power-of-two open-addressing table: Fibonacci hashing, linear
// probing, grown at 3/4 load, 8 bytes per slot (a node-based
// std::unordered_set costs ~32 bytes per entry plus its bucket array).
// Slot value 0 marks an empty slot, so key 0 (the self-pair of host 0,
// which a CSV trace can carry) is tracked by a flag of its own. The set
// answers membership only; it has no iteration order for a caller to
// depend on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lazyctrl::workload {

class PairKeySet {
 public:
  /// Sized so that `expected` keys fit without growing.
  explicit PairKeySet(std::size_t expected = 0) {
    int bits = kMinBits;
    while ((std::size_t{1} << bits) * 3 < expected * 4) ++bits;
    rehash(bits);
  }

  /// Adds `key`; returns true if it was not in the set yet.
  bool insert(std::uint64_t key) {
    if (key == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      return true;
    }
    std::size_t i = slot_of(key);
    for (; slots_[i] != 0; i = (i + 1) & mask_) {
      if (slots_[i] == key) return false;
    }
    if ((slotted_ + 1) * 4 > slots_.size() * 3) {  // would pass 3/4 full
      rehash(bits_ + 1);
      return insert(key);
    }
    slots_[i] = key;
    ++slotted_;
    return true;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return slotted_ + (has_zero_ ? 1 : 0);
  }
  /// Slots in the table (a power of two, at least 2^kMinBits).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  static constexpr int kMinBits = 4;

 private:
  /// Fibonacci hashing: the product's high bits depend on every key bit.
  [[nodiscard]] std::size_t slot_of(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >>
                                    (64 - bits_));
  }

  void rehash(int bits) {
    std::vector<std::uint64_t> old(std::size_t{1} << bits);
    old.swap(slots_);
    bits_ = bits;
    mask_ = slots_.size() - 1;
    for (const std::uint64_t key : old) {
      if (key == 0) continue;
      std::size_t i = slot_of(key);
      while (slots_[i] != 0) i = (i + 1) & mask_;
      slots_[i] = key;
    }
  }

  std::vector<std::uint64_t> slots_;
  int bits_ = 0;
  std::size_t mask_ = 0;
  std::size_t slotted_ = 0;  ///< nonzero keys, i.e. occupied slots
  bool has_zero_ = false;
};

}  // namespace lazyctrl::workload
