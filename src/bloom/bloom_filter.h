// Bloom filter used to implement the Group Forwarding Information Base.
//
// Paper context (§III-D2): each edge switch stores one Bloom filter per peer
// switch in its local control group; the filter for peer P summarises the
// set of host MACs attached to P. Membership queries answer "might host X
// be behind P?" with a controlled false-positive rate.
//
// The implementation uses the standard double-hashing scheme of Kirsch &
// Mitzenmacher: k index functions derived from two 64-bit hashes, so adding
// an element costs two multiplies plus k cheap combines. The two 64-bit
// hashes are exposed as `BloomHash` so a caller probing many filters for the
// same key (a G-FIB scanning every peer filter) pays the mixing cost once
// per key instead of once per filter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mac.h"

namespace lazyctrl {

namespace detail {

// Two independent 64-bit mixers (xxHash/SplitMix-style avalanche finalizers)
// seeding the Kirsch-Mitzenmacher double hashing scheme. Header-inline so
// the per-packet hot path can compute them without a call.
inline constexpr std::uint64_t bloom_mix1(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

inline constexpr std::uint64_t bloom_mix2(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace detail

/// The precomputed double-hash pair for one key. Computing this once and
/// probing N filters with it is the hash cache of the replay datapath:
/// the avalanche mixing runs once per key, not once per (key, filter).
struct BloomHash {
  std::uint64_t h1;
  std::uint64_t h2;  ///< kept odd so the probe sequence has full period

  static constexpr BloomHash of(std::uint64_t key) noexcept {
    return BloomHash{detail::bloom_mix1(key), detail::bloom_mix2(key) | 1};
  }
  static constexpr BloomHash of(MacAddress mac) noexcept {
    return of(mac.bits());
  }
};

/// Bank slot sentinel shared by both bank layouts: `slot_of` returns it for
/// an absent peer, and a `query_into` given it as `skip_slot` masks nothing.
inline constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// Parameters for constructing a Bloom filter.
struct BloomParameters {
  /// Hard cap on `hash_count`. Both filter layouts (per-peer BloomFilter
  /// and the bit-sliced SlicedBloomBank) clamp to this same bound, so the
  /// probe sequences — and therefore the candidate sets — stay
  /// bit-identical for any parameter choice. 64 is far beyond the optimum
  /// k of any realistic geometry (k = -log2(p) ~ 30 at p = 1e-9).
  static constexpr std::size_t kMaxHashCount = 64;

  /// Number of bits in the filter (rounded up to a multiple of 64).
  std::size_t bits = 1024;
  /// Number of hash functions.
  std::size_t hash_count = 4;

  /// Chooses (bits, hash_count) to meet `target_fp_rate` at `expected_items`
  /// insertions, using the textbook optimum m = -n ln p / (ln 2)^2 and
  /// k = (m/n) ln 2.
  static BloomParameters for_target(std::size_t expected_items,
                                    double target_fp_rate);
};

class BloomFilter {
 public:
  explicit BloomFilter(BloomParameters params = {});

  void insert(BloomHash h) noexcept {
    std::uint64_t idx = h.h1;
    for (std::size_t i = 0; i < hashes_; ++i) {
      const std::size_t bit = range_map(idx);
      words_[bit >> 6] |= (std::uint64_t{1} << (bit & 63));
      idx += h.h2;
    }
    ++inserted_;
  }
  void insert(std::uint64_t key) noexcept { insert(BloomHash::of(key)); }
  void insert(MacAddress mac) noexcept { insert(mac.bits()); }

  /// True if the key hashed into `h` *may* have been inserted; false means
  /// definitely not. The allocation-free probe of the replay datapath.
  [[nodiscard]] bool may_contain(BloomHash h) const noexcept {
    std::uint64_t idx = h.h1;
    for (std::size_t i = 0; i < hashes_; ++i) {
      const std::size_t bit = range_map(idx);
      if ((words_[bit >> 6] & (std::uint64_t{1} << (bit & 63))) == 0) {
        return false;
      }
      idx += h.h2;
    }
    return true;
  }
  [[nodiscard]] bool may_contain(std::uint64_t key) const noexcept {
    return may_contain(BloomHash::of(key));
  }
  [[nodiscard]] bool may_contain(MacAddress mac) const noexcept {
    return may_contain(mac.bits());
  }

  void clear() noexcept;

  [[nodiscard]] std::size_t bit_count() const noexcept {
    return words_.size() * 64;
  }
  [[nodiscard]] std::size_t hash_count() const noexcept { return hashes_; }
  [[nodiscard]] std::size_t inserted_count() const noexcept {
    return inserted_;
  }
  /// Storage footprint of the bit array in bytes.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }
  /// Number of set bits (popcount over the array).
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// Expected false-positive probability given the elements inserted so far:
  /// (1 - e^{-kn/m})^k.
  [[nodiscard]] double expected_fp_rate() const noexcept;

  /// Observed fill ratio (set bits / total bits).
  [[nodiscard]] double fill_ratio() const noexcept;

  /// Merges another filter of identical geometry (bitwise OR).
  /// Returns false (and leaves this unchanged) on geometry mismatch.
  bool merge(const BloomFilter& other) noexcept;

  friend bool operator==(const BloomFilter& a, const BloomFilter& b) noexcept {
    return a.hashes_ == b.hashes_ && a.words_ == b.words_;
  }

 private:
  /// Maps a 64-bit probe value uniformly onto [0, bit_count) with Lemire's
  /// multiply-shift — one widening multiply instead of the hardware 64-bit
  /// division a `% bit_count` would cost on every probe of every filter in
  /// a G-FIB scan.
  [[nodiscard]] std::size_t range_map(std::uint64_t idx) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(idx) * bit_count()) >> 64);
  }

  std::vector<std::uint64_t> words_;
  std::size_t hashes_;
  std::size_t inserted_ = 0;
};

}  // namespace lazyctrl
