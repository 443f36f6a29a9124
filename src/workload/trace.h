// Flow-level traffic trace model.
//
// The paper replays a day-long per-flow trace; we represent a trace as a
// time-sorted vector of flows. The simulator injects the first packet of
// each flow (the event that can reach the controller) and accounts for the
// remaining packets analytically, which preserves every metric the paper
// reports (controller requests/s, setup latency, average per-packet
// latency) at a fraction of the event cost.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/time.h"

namespace lazyctrl::workload {

struct Flow {
  std::uint64_t id = 0;
  HostId src;
  HostId dst;
  SimTime start = 0;
  /// Total packets in the flow (>= 1).
  std::uint32_t packets = 1;
  std::uint32_t avg_packet_bytes = 512;
};

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

/// Sorts flows by start time, stable for equal starts, and reassigns
/// dense ids. Generators and every trace-shaping pass call this before
/// returning. Adaptive and in place: an already sorted trace costs one
/// read pass and moves nothing; otherwise the out-of-order tail is radix
/// sorted in place and merged into the sorted prefix, with a scratch
/// buffer no larger than the overlap of the two (never the n/2 buffer of
/// std::stable_sort).
void finalize_trace(Trace& trace);

/// The flows of `trace` starting in [from, to), rebased so the slice
/// starts at time 0 and its horizon is (to - from). Useful for warming up
/// on one window and replaying another.
Trace slice_trace(const Trace& trace, SimTime from, SimTime to);

/// Concatenates two traces on a common timeline: `b`'s flows are shifted
/// by `a`'s horizon; the result's horizon is the sum of the two.
Trace concat_traces(const Trace& a, const Trace& b);

}  // namespace lazyctrl::workload
