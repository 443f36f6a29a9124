#include "workload/trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>
#include <vector>

namespace lazyctrl::workload {

DiurnalProfile DiurnalProfile::business_day() {
  // Relative load per hour-of-day; values loosely follow the enterprise
  // data-center diurnal pattern (low overnight, rise from 7am, afternoon
  // peak, evening decay).
  DiurnalProfile p;
  p.hourly_weight = {0.35, 0.30, 0.28, 0.27, 0.28, 0.32, 0.45, 0.65,
                     0.85, 1.00, 1.10, 1.15, 1.10, 1.15, 1.20, 1.15,
                     1.05, 0.95, 0.85, 0.75, 0.65, 0.55, 0.45, 0.40};
  return p;
}

DiurnalProfile DiurnalProfile::flat() {
  DiurnalProfile p;
  p.hourly_weight.fill(1.0);
  return p;
}

std::array<double, 24> DiurnalProfile::cumulative() const {
  std::array<double, 24> cdf{};
  double total = 0;
  for (double w : hourly_weight) total += w;
  double acc = 0;
  for (std::size_t h = 0; h < 24; ++h) {
    acc += hourly_weight[h] / total;
    cdf[h] = acc;
  }
  cdf[23] = 1.0;  // guard against rounding
  return cdf;
}

namespace {

bool start_before(const Flow& a, const Flow& b) { return a.start < b.start; }

/// In-place MSD radix sort (American flag sort) of a flow range and its
/// arrival positions, moved together, on (start, position) read as one
/// number: `start - min_start` in the high bits, the position in the low
/// `position_bits`. Each level keeps its bucket cursors on the stack and
/// at most 127 key bits recurse at most 16 levels deep, so the sort
/// itself touches no heap memory.
template <class Position>
class FlowRadixSort {
 public:
  FlowRadixSort(Flow* flows, Position* positions, std::uint64_t min_start,
                int position_bits)
      : flows_(flows),
        positions_(positions),
        min_start_(min_start),
        position_bits_(position_bits) {}

  /// Sorts [first, last), whose keys agree on every bit above `bits`.
  void sort(std::size_t first, std::size_t last, int bits) const {
    const std::size_t n = last - first;
    if (n <= kSmallRange || bits == 0) {
      insertion_sort(first, last);
      return;
    }
    const int width = std::min(bits, 8);
    bits -= width;
    std::array<std::size_t, 256> count{};
    for (std::size_t i = first; i != last; ++i) {
      ++count[digit(flows_[i], positions_[i], bits, width)];
    }
    // All flows share this digit: go down a level without moving any.
    if (std::find(count.begin(), count.end(), n) != count.end()) {
      sort(first, last, bits);
      return;
    }
    std::array<std::size_t, 256> head;
    std::array<std::size_t, 256> end;
    std::size_t p = first;
    for (std::size_t b = 0; b < count.size(); ++b) {
      head[b] = p;
      p += count[b];
      end[b] = p;
    }
    for (std::size_t b = 0; b < count.size(); ++b) {
      while (head[b] != end[b]) {
        // Carry the flow under the cursor along its cycle: drop it at its
        // bucket's cursor, pick up the flow that was there, until one
        // belongs back here.
        Flow carried = flows_[head[b]];
        Position carried_position = positions_[head[b]];
        unsigned d = digit(carried, carried_position, bits, width);
        while (d != b) {
          const std::size_t slot = head[d]++;
          // Each step lands on another bucket's cursor, too many streams
          // for the hardware prefetcher: fetch the slots this cursor
          // reaches eight drops from now, if its bucket gets that far.
          if (end[d] - slot > 8) {
            __builtin_prefetch(flows_ + slot + 8, 1);
            __builtin_prefetch(positions_ + slot + 8, 1);
          }
          std::swap(carried, flows_[slot]);
          std::swap(carried_position, positions_[slot]);
          d = digit(carried, carried_position, bits, width);
        }
        flows_[head[b]] = carried;
        positions_[head[b]++] = carried_position;
      }
    }
    for (std::size_t b = 0; b < count.size(); ++b) {
      if (count[b] > 1) sort(end[b] - count[b], end[b], bits);
    }
  }

 private:
  static constexpr std::size_t kSmallRange = 32;

  void insertion_sort(std::size_t first, std::size_t last) const {
    for (std::size_t i = first + 1; i < last; ++i) {
      const Flow f = flows_[i];
      const Position position = positions_[i];
      std::size_t j = i;
      for (; j != first && key_less(f, position, j - 1); --j) {
        flows_[j] = flows_[j - 1];
        positions_[j] = positions_[j - 1];
      }
      flows_[j] = f;
      positions_[j] = position;
    }
  }

  /// Whether (f, position) orders before the flow at slot j.
  [[nodiscard]] bool key_less(const Flow& f, Position position,
                              std::size_t j) const {
    return f.start < flows_[j].start ||
           (f.start == flows_[j].start && position < positions_[j]);
  }

  /// Key bits [lo, lo + width), width <= 8.
  [[nodiscard]] unsigned digit(const Flow& f, Position position, int lo,
                               int width) const {
    const std::uint64_t rel = static_cast<std::uint64_t>(f.start) - min_start_;
    // position_bits_ < 64 (a vector holds fewer than 2^63 flows), so the
    // shift below is defined.
    const std::uint64_t v =
        lo >= position_bits_
            ? rel >> (lo - position_bits_)
            : (std::uint64_t{position} >> lo) |
                  (rel << (position_bits_ - lo));
    return static_cast<unsigned>(v & ((1u << width) - 1));
  }

  Flow* flows_;
  Position* positions_;
  std::uint64_t min_start_;
  int position_bits_;
};

}  // namespace

namespace detail {

template <class Position>
void sort_by_arrival(Flow* first, Flow* last) {
  if (std::is_sorted(first, last, start_before)) return;
  const auto n = static_cast<std::size_t>(last - first);
  SimTime lo = first->start;
  SimTime hi = lo;
  // Freed on return, before finalize_trace's merge allocates its buffer.
  std::vector<Position> positions;
  positions.reserve(n);
  for (const Flow* f = first; f != last; ++f) {
    positions.push_back(static_cast<Position>(f - first));
    lo = std::min(lo, f->start);
    hi = std::max(hi, f->start);
  }
  // Unsigned difference: negative starts and a full int64 span both work.
  const auto span = static_cast<std::uint64_t>(hi) -
                    static_cast<std::uint64_t>(lo);
  const auto position_bits =
      static_cast<int>(std::bit_width(std::uint64_t{n} - 1));
  FlowRadixSort<Position>(first, positions.data(),
                          static_cast<std::uint64_t>(lo), position_bits)
      .sort(0, n, static_cast<int>(std::bit_width(span)) + position_bits);
}

template void sort_by_arrival<std::uint32_t>(Flow*, Flow*);
template void sort_by_arrival<std::uint64_t>(Flow*, Flow*);

}  // namespace detail

void finalize_trace(Trace& trace) {
  // Positions as wide as the sorted range needs.
  const auto sort_range = [](Flow* from, Flow* to) {
    if (detail::wide_positions(static_cast<std::size_t>(to - from))) {
      detail::sort_by_arrival<std::uint64_t>(from, to);
    } else {
      detail::sort_by_arrival<std::uint32_t>(from, to);
    }
  };
  Flow* const first = trace.flows.data();
  Flow* const last = first + trace.flows.size();
  Flow* const mid = std::is_sorted_until(first, last, start_before);
  if (mid - first < last - mid) {
    // A sorted prefix shorter than the rest is not worth merging into.
    sort_range(first, last);
  } else if (mid != last) {
    sort_range(mid, last);
    // Every prefix flow arrived before every tail flow, so a merge that
    // keeps the prefix first on ties is the stable order. Prefix flows no
    // later than the tail's first stay put, those after its last rotate
    // behind it, and only the overlap is merged.
    Flow* const lo = std::upper_bound(first, mid, *mid, start_before);
    Flow* const hi = std::upper_bound(lo, mid, last[-1], start_before);
    Flow* const tail_end = std::rotate(hi, mid, last);
    std::inplace_merge(lo, hi, tail_end, start_before);
  }
}

Trace slice_trace(const Trace& trace, SimTime from, SimTime to) {
  const auto in_slice = [&](const Flow& f) {
    return f.start >= from && f.start < to;
  };
  Trace out;
  out.horizon = std::max<SimDuration>(to - from, 1);
  out.flows.reserve(static_cast<std::size_t>(
      std::count_if(trace.flows.begin(), trace.flows.end(), in_slice)));
  for (const Flow& f : trace.flows) {
    if (!in_slice(f)) continue;
    Flow copy = f;
    copy.start -= from;
    out.flows.push_back(copy);
  }
  finalize_trace(out);
  return out;
}

Trace concat_traces(const Trace& a, const Trace& b) {
  Trace out;
  out.horizon = a.horizon + b.horizon;
  out.flows.reserve(a.flows.size() + b.flows.size());
  out.flows.assign(a.flows.begin(), a.flows.end());
  for (const Flow& f : b.flows) {
    Flow copy = f;
    copy.start += a.horizon;
    out.flows.push_back(copy);
  }
  finalize_trace(out);
  return out;
}

}  // namespace lazyctrl::workload
