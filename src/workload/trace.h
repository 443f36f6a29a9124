// Flow-level traffic trace model.
//
// The paper replays a day-long per-flow trace; we represent a trace as a
// time-sorted vector of flows. The simulator injects the first packet of
// each flow (the event that can reach the controller) and accounts for the
// remaining packets analytically, which preserves every metric the paper
// reports (controller requests/s, setup latency, average per-packet
// latency) at a fraction of the event cost. A flow's id is its position
// in the finalized trace: the replay passes it along with the flow, so a
// record stores no id of its own.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace lazyctrl::workload {

struct Flow {
  HostId src;
  HostId dst;
  SimTime start = 0;
  /// Total packets in the flow (>= 1).
  std::uint32_t packets = 1;
  std::uint32_t avg_packet_bytes = 512;
};
// The trace is every run's largest allocation, and each shaping pass
// copies it: a field added here costs its size per flow several times
// over.
static_assert(sizeof(Flow) == 24);

struct Trace {
  std::vector<Flow> flows;  ///< sorted by `start`
  SimDuration horizon = 24 * kHour;

  [[nodiscard]] std::size_t flow_count() const noexcept {
    return flows.size();
  }
};

/// Hourly activity multipliers shaping flow arrival times over a day.
struct DiurnalProfile {
  std::array<double, 24> hourly_weight;

  /// Business-day curve: quiet at night, ramping from 7am, peaking early
  /// afternoon — the shape visible in the paper's Fig. 7 OpenFlow series.
  static DiurnalProfile business_day();

  /// Flat profile (uniform arrivals), useful in tests.
  static DiurnalProfile flat();

  /// Normalised cumulative distribution over the 24 hours.
  [[nodiscard]] std::array<double, 24> cumulative() const;
};

/// The hour a uniform draw `u` falls in under `cdf`, a
/// DiurnalProfile::cumulative(): the number of hours h < 23 with
/// cdf[h] < u. Because `cdf` never decreases, that is the first h with
/// u <= cdf[h], or 23 if there is none. Counting has no data-dependent
/// exit, so every draw costs the same.
[[nodiscard]] inline std::size_t hour_of(const std::array<double, 24>& cdf,
                                         double u) noexcept {
  std::size_t hour = 0;
  for (std::size_t h = 0; h < 23; ++h) hour += cdf[h] < u ? 1 : 0;
  return hour;
}

/// Sorts flows by start time, stable for equal starts, which fixes every
/// flow's id (its position). Generators, the CSV reader and every
/// trace-shaping pass call this before returning. Same as
/// sort_flows(trace.flows).
void finalize_trace(Trace& trace);

/// finalize_trace's order on a range of flows. Adaptive: a sorted range
/// costs one read pass and allocates nothing. Otherwise the out-of-order
/// tail is radix sorted in place on (start, arrival position) and then
/// merged into the sorted prefix, and the two steps share one scratch
/// allocation of max(4 x tail, min(overlap, tail) x sizeof(Flow)) bytes:
/// the tail's arrival positions use it first, then the merge's copy of
/// the shorter run (never the n/2-flow buffer of std::stable_sort). A
/// generator that emits its flows in time slices, each starting no
/// earlier than the last ended, sorts each slice as it closes, so the
/// scratch covers one slice and finalize_trace only reads the trace.
void sort_flows(std::span<Flow> flows);

namespace detail {

/// Whether sort_flows keys a range of `n` flows on 64-bit arrival
/// positions: 32 bits would wrap at 2^32 flows.
[[nodiscard]] constexpr bool wide_positions(std::size_t n) noexcept {
  return n > std::size_t{0xFFFF'FFFF};
}

/// sort_flows with arrival positions of type `Position` (std::uint32_t
/// or std::uint64_t, so 4 or 8 scratch bytes per sorted flow). Exposed
/// so tests can run the 64-bit instance without a 2^32-flow trace.
template <class Position>
void sort_flows(std::span<Flow> flows);

}  // namespace detail

/// The flows of `trace` starting in [from, to), rebased so the slice
/// starts at time 0 and its horizon is (to - from). Useful for warming up
/// on one window and replaying another.
Trace slice_trace(const Trace& trace, SimTime from, SimTime to);

/// Concatenates two traces on a common timeline: `b`'s flows are shifted
/// by `a`'s horizon; the result's horizon is the sum of the two.
Trace concat_traces(const Trace& a, const Trace& b);

}  // namespace lazyctrl::workload
