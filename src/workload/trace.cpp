#include "workload/trace.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <memory>
#include <numeric>
#include <utility>

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

/// Stable merge of the sorted runs [first, mid) and [mid, last), ties to
/// the first run, through `buffer`, which holds the shorter run.
void merge_runs(Flow* first, Flow* mid, Flow* last, Flow* buffer) {
  if (mid - first <= last - mid) {
    // The first run waits in the buffer and the merge runs forward: the
    // write cursor never passes the second run's read cursor.
    Flow* const buffer_end = std::copy(first, mid, buffer);
    Flow* a = buffer;
    Flow* b = mid;
    Flow* out = first;
    while (a != buffer_end && b != last) {
      *out++ = start_before(*b, *a) ? *b++ : *a++;
    }
    std::copy(a, buffer_end, out);
  } else {
    // The second run waits in the buffer and the merge runs backward.
    Flow* const buffer_end = std::copy(mid, last, buffer);
    Flow* a = mid;
    Flow* b = buffer_end;
    Flow* out = last;
    while (a != first && b != buffer) {
      *--out = start_before(b[-1], a[-1]) ? *--a : *--b;
    }
    std::copy_backward(buffer, b, out);
  }
}

}  // namespace

namespace detail {

template <class Position>
void sort_flows(std::span<Flow> flows) {
  Flow* const first = flows.data();
  Flow* const last = first + flows.size();
  Flow* mid = std::is_sorted_until(first, last, start_before);
  if (mid == last) return;
  // A sorted prefix shorter than the rest is not worth merging into.
  if (mid - first < last - mid) mid = first;
  const auto tail = static_cast<std::size_t>(last - mid);
  SimTime lo_start = mid->start;
  SimTime hi_start = lo_start;
  bool sort_tail = false;
  for (const Flow* f = mid + 1; f != last; ++f) {
    sort_tail |= f->start < f[-1].start;
    lo_start = std::min(lo_start, f->start);
    hi_start = std::max(hi_start, f->start);
  }
  // Every prefix flow arrived before every tail flow, so a merge that
  // keeps the prefix first on ties is the stable order. Prefix flows no
  // later than the tail's first stay put, those after its last rotate
  // behind it, and only the overlap [lo, hi) is merged.
  const auto after = [](SimTime start, const Flow& f) {
    return start < f.start;
  };
  Flow* const lo = std::upper_bound(first, mid, lo_start, after);
  Flow* const hi = std::upper_bound(lo, mid, hi_start, after);
  const std::size_t merged =
      std::min(static_cast<std::size_t>(hi - lo), tail);

  // One scratch allocation serves both steps: the tail's arrival
  // positions, then the merge's copy of the shorter run. (Flow and
  // Position are implicit-lifetime types, so the byte array provides
  // their storage.)
  const std::size_t bytes = std::max(sort_tail ? tail * sizeof(Position) : 0,
                                     merged * sizeof(Flow));
  std::unique_ptr<std::byte[]> scratch;
  if (bytes > 0) scratch = std::make_unique_for_overwrite<std::byte[]>(bytes);
  if (sort_tail) {
    auto* const positions = reinterpret_cast<Position*>(scratch.get());
    std::iota(positions, positions + tail, Position{0});
    // Unsigned difference: negative starts and a full int64 span both work.
    const auto span = static_cast<std::uint64_t>(hi_start) -
                      static_cast<std::uint64_t>(lo_start);
    const auto position_bits =
        static_cast<int>(std::bit_width(std::uint64_t{tail} - 1));
    FlowRadixSort<Position>(mid, positions,
                            static_cast<std::uint64_t>(lo_start),
                            position_bits)
        .sort(0, tail, static_cast<int>(std::bit_width(span)) + position_bits);
  }
  if (mid != first) {
    Flow* const tail_end = std::rotate(hi, mid, last);
    if (merged > 0) {
      merge_runs(lo, hi, tail_end, reinterpret_cast<Flow*>(scratch.get()));
    }
  }
}

template void sort_flows<std::uint32_t>(std::span<Flow>);
template void sort_flows<std::uint64_t>(std::span<Flow>);

}  // namespace detail

void sort_flows(std::span<Flow> flows) {
  // Positions as wide as the range needs.
  if (detail::wide_positions(flows.size())) {
    detail::sort_flows<std::uint64_t>(flows);
  } else {
    detail::sort_flows<std::uint32_t>(flows);
  }
}

void finalize_trace(Trace& trace) { sort_flows(trace.flows); }

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
