// SlicedBloomBank: a bit-sliced (transposed), byte-packed Bloom bank.
//
// The linear BloomBank stores one filter per switch, so a G-FIB scan walks
// S independent bit arrays and touches O(S) cache lines even when every
// probe early-exits. This bank stores the SAME bits transposed: for every
// bit position b of the shared filter address space it keeps a column
// mask ("slice"), where slice[b] bit s answers "does slot s have filter
// bit b set?". One query reads the k slices addressed by the key's probe
// sequence, ANDs them, and the surviving bits ARE the candidate set —
// O(k) cache lines per scan regardless of group size, extracted in
// ascending SwitchId order by construction. core::GFib keeps one such
// bank per group, own columns included, and each member's query masks
// its own slot out (`skip_slot`).
//
// Rows are packed at BYTE granularity (stride = ⌈column capacity / 8⌉
// bytes, grown 8 columns at a time), not at word granularity: with
// 64-bit rows a 16384-bit filter space costs 128 KB per bank no matter
// how small the group. Byte packing brings the transposed footprint to
// m·⌈S/8⌉ bytes vs the linear layout's S·m/8: parity at 8-column
// multiples, up to the byte-rounding factor 8/S above it for tiny groups
// (a 2-column bank costs 4× linear), while the scan still reads each row
// as one unaligned 64-bit load per 64-column chunk. Rows carry 8 trailing
// padding bytes so the last chunk's load is always in-bounds; bits beyond
// the live slot count are masked.
//
// Equivalence: slots share one filter geometry (`BloomParameters`,
// rounded exactly like `BloomFilter`) and the probe sequence is the same
// Kirsch-Mitzenmacher walk over the same `BloomHash`, so for any key the
// candidate set — including false positives — is bit-identical to a
// linear `BloomBank` built from the same per-switch host lists. The
// randomized property test in tests/sliced_bank_test.cpp enforces this.
//
// Maintenance: columns are kept in ascending SwitchId order. A column
// appended past the highest id costs no layout work (the full-rebuild
// path builds in ascending order for exactly this reason); re-building an
// existing column clears and re-sets its bits in place; inserting below
// the highest id shifts one bit column through every row. There is no
// column removal: a group whose member set changes gets a fresh bank.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/ids.h"
#include "common/mac.h"

namespace lazyctrl::bloom {

// Slot-to-bit addressing writes byte s/8 bit s%8 and reads rows back
// through unaligned 64-bit loads (plus partial low-byte stores in the
// column-insert fast path) — a mapping that only agrees between the two
// access widths on little-endian hosts. Fail the build rather than
// silently corrupt candidate sets elsewhere.
static_assert(std::endian::native == std::endian::little,
              "SlicedBloomBank's byte-packed rows assume little-endian; "
              "port the chunked loads before enabling on big-endian");

class SlicedBloomBank {
 public:
  explicit SlicedBloomBank(BloomParameters per_filter_params = {});

  /// Builds (or rebuilds) the column summarising `peer`'s host MAC list.
  void build_filter(SwitchId peer, const std::vector<MacAddress>& hosts);

  /// Drops every column and resets the stride; the heap buffer is kept
  /// for the typical clear-then-rebuild cycle.
  void clear();

  /// Pre-sizes the row stride for `n` columns so a bulk rebuild performs
  /// at most one re-layout instead of one per 8 appended columns. Never
  /// shrinks.
  void reserve_columns(std::size_t n);

  /// Appends every peer whose column reports possible membership of the
  /// key hashed into `h` (ascending SwitchId order) to `out` without
  /// clearing it; the column at `skip_slot` (a member's own, see slot_of)
  /// is masked out. Allocation-free given spare capacity in `out`.
  void query_into(BloomHash h, std::vector<SwitchId>& out,
                  std::size_t skip_slot = kNoSlot) const {
    const std::size_t n = peers_.size();
    if (n == 0) return;
    const std::size_t stride = bytes_per_row_;
    // One range_map per hash, shared by every peer (the slice rows).
    std::size_t rows[kMaxHashes];
    std::uint64_t idx = h.h1;
    for (std::size_t i = 0; i < hashes_; ++i) {
      rows[i] = range_map(idx) * stride;
      idx += h.h2;
    }
    // 64 peers (8 row bytes) per chunk; the tail chunk over-reads into
    // the padding and neighbouring rows, masked off below.
    for (std::size_t c = 0; c * 8 < n; c += 8) {
      std::uint64_t acc = load64(rows[0] + c);
      for (std::size_t i = 1; acc != 0 && i < hashes_; ++i) {
        acc &= load64(rows[i] + c);
      }
      const std::size_t live = n - c * 8;  // live slots in this chunk
      if (live < 64) acc &= (std::uint64_t{1} << live) - 1;
      // Unsigned wrap: a skip slot below this chunk lands far above 64.
      const std::size_t skip = skip_slot - c * 8;
      if (skip < 64) acc &= ~(std::uint64_t{1} << skip);
      while (acc != 0) {
        const unsigned bit =
            static_cast<unsigned>(std::countr_zero(acc));
        out.push_back(peers_[c * 8 + bit]);
        acc &= acc - 1;
      }
    }
  }

  /// Column index of `peer` (its rank in ascending id order), or kNoSlot
  /// when the bank holds no column for it.
  [[nodiscard]] std::size_t slot_of(SwitchId peer) const;
  /// Peers with an installed column, ascending id order.
  [[nodiscard]] const std::vector<SwitchId>& peers() const noexcept {
    return peers_;
  }
  [[nodiscard]] std::size_t filter_count() const noexcept {
    return peers_.size();
  }
  /// Slice-table footprint in bytes (rows x packed stride, excluding the
  /// constant tail padding). An empty bank reports 0, matching the
  /// linear layout's accounting.
  [[nodiscard]] std::size_t storage_bytes() const noexcept {
    return peers_.empty() ? 0 : bits_ * bytes_per_row_;
  }
  [[nodiscard]] const BloomParameters& params() const noexcept {
    return params_;
  }
  /// Shared per-peer filter geometry (rounded like BloomFilter).
  [[nodiscard]] std::size_t bit_count() const noexcept { return bits_; }

 private:
  // The probe-row array lives on the stack; BloomFilter clamps hash_count
  // to the same bound so both layouts stay bit-identical for any params.
  static constexpr std::size_t kMaxHashes = BloomParameters::kMaxHashCount;
  /// Trailing bytes so the last chunk's 64-bit load stays in-bounds.
  static constexpr std::size_t kTailPadding = 8;

  [[nodiscard]] std::uint64_t load64(std::size_t byte_offset) const noexcept {
    std::uint64_t w;
    std::memcpy(&w, slices_.data() + byte_offset, sizeof(w));
    return w;
  }

  /// Same Lemire multiply-shift as BloomFilter::range_map over the same
  /// rounded bit count — the equivalence-critical mapping.
  [[nodiscard]] std::size_t range_map(std::uint64_t idx) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(idx) * bits_) >> 64);
  }

  /// Rank of `peer` among installed columns (== its slot when present).
  [[nodiscard]] std::size_t rank_of(SwitchId peer) const;

  void set_row_stride(std::size_t new_stride);
  void insert_column(std::size_t slot);
  void clear_column(std::size_t slot);

  BloomParameters params_;
  std::size_t bits_;    ///< rounded-up bit positions == slice rows
  std::size_t hashes_;  ///< clamped like BloomFilter
  std::size_t bytes_per_row_ = 1;       ///< packed row stride (8 slots/B)
  std::vector<SwitchId> peers_;         ///< ascending; slot == index
  std::vector<std::uint8_t> slices_;    ///< bits_ rows x stride + padding
};

}  // namespace lazyctrl::bloom
