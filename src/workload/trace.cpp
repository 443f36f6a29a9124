#include "workload/trace.h"

#include <algorithm>
#include <array>
#include <bit>
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

/// Flows whose `id` holds their arrival index, ordered by (start, id).
bool key_less(const Flow& a, const Flow& b) {
  return a.start < b.start || (a.start == b.start && a.id < b.id);
}

/// In-place MSD radix sort (American flag sort) on (start, id), read as one
/// number: `start - min_start` in the high bits, `id` in the low `id_bits`.
/// Each level keeps its bucket cursors on the stack and at most 127 key
/// bits recurse at most 16 levels deep, so no heap memory is touched.
class FlowRadixSort {
 public:
  FlowRadixSort(std::uint64_t min_start, int id_bits)
      : min_start_(min_start), id_bits_(id_bits) {}

  /// Sorts [first, last), whose keys agree on every bit above `bits`.
  void sort(Flow* first, Flow* last, int bits) const {
    const auto n = static_cast<std::size_t>(last - first);
    if (n <= kSmallRange || bits == 0) {
      insertion_sort(first, last);
      return;
    }
    const int width = std::min(bits, 8);
    bits -= width;
    std::array<std::size_t, 256> count{};
    for (const Flow* f = first; f != last; ++f) {
      ++count[digit(*f, bits, width)];
    }
    // All flows share this digit: go down a level without moving any.
    if (std::find(count.begin(), count.end(), n) != count.end()) {
      sort(first, last, bits);
      return;
    }
    std::array<Flow*, 256> head;
    std::array<Flow*, 256> end;
    Flow* p = first;
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
        Flow carried = *head[b];
        unsigned d = digit(carried, bits, width);
        while (d != b) {
          Flow* const slot = head[d]++;
          // Each step lands on another bucket's cursor, too many streams
          // for the hardware prefetcher: fetch the slot this cursor
          // reaches eight drops from now, if its bucket gets that far.
          if (end[d] - slot > 8) __builtin_prefetch(slot + 8, 1);
          std::swap(carried, *slot);
          d = digit(carried, bits, width);
        }
        *head[b]++ = carried;
      }
    }
    for (std::size_t b = 0; b < count.size(); ++b) {
      if (count[b] > 1) sort(end[b] - count[b], end[b], bits);
    }
  }

 private:
  static constexpr std::size_t kSmallRange = 32;

  static void insertion_sort(Flow* first, Flow* last) {
    for (Flow* i = first + 1; i < last; ++i) {
      const Flow f = *i;
      Flow* j = i;
      for (; j != first && key_less(f, j[-1]); --j) *j = j[-1];
      *j = f;
    }
  }

  /// Key bits [lo, lo + width), width <= 8.
  [[nodiscard]] unsigned digit(const Flow& f, int lo, int width) const {
    const std::uint64_t rel = static_cast<std::uint64_t>(f.start) - min_start_;
    // id_bits_ < 64 (a vector holds fewer than 2^63 flows), so the shift
    // below is defined.
    const std::uint64_t v = lo >= id_bits_
                                ? rel >> (lo - id_bits_)
                                : (f.id >> lo) | (rel << (id_bits_ - lo));
    return static_cast<unsigned>(v & ((1u << width) - 1));
  }

  std::uint64_t min_start_;
  int id_bits_;
};

/// Sorts [first, last) by (start, position) in place. Positions go into
/// `id`, which finalize_trace overwrites afterwards.
void sort_by_arrival(Flow* first, Flow* last) {
  if (std::is_sorted(first, last, start_before)) return;
  SimTime lo = first->start;
  SimTime hi = lo;
  std::uint64_t position = 0;
  for (Flow* f = first; f != last; ++f) {
    f->id = position++;
    lo = std::min(lo, f->start);
    hi = std::max(hi, f->start);
  }
  // Unsigned difference: negative starts and a full int64 span both work.
  const auto span = static_cast<std::uint64_t>(hi) -
                    static_cast<std::uint64_t>(lo);
  const auto id_bits = static_cast<int>(std::bit_width(position - 1));
  FlowRadixSort(static_cast<std::uint64_t>(lo), id_bits)
      .sort(first, last, static_cast<int>(std::bit_width(span)) + id_bits);
}

}  // namespace

void finalize_trace(Trace& trace) {
  Flow* const first = trace.flows.data();
  Flow* const last = first + trace.flows.size();
  Flow* const mid = std::is_sorted_until(first, last, start_before);
  if (mid - first < last - mid) {
    // A sorted prefix shorter than the rest is not worth merging into.
    sort_by_arrival(first, last);
  } else if (mid != last) {
    sort_by_arrival(mid, last);
    // Every prefix flow arrived before every tail flow, so a merge that
    // keeps the prefix first on ties is the stable order. Prefix flows no
    // later than the tail's first stay put, those after its last rotate
    // behind it, and only the overlap is merged.
    Flow* const lo = std::upper_bound(first, mid, *mid, start_before);
    Flow* const hi = std::upper_bound(lo, mid, last[-1], start_before);
    Flow* const tail_end = std::rotate(hi, mid, last);
    std::inplace_merge(lo, hi, tail_end, start_before);
  }
  std::uint64_t id = 0;
  for (Flow& f : trace.flows) f.id = id++;
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
