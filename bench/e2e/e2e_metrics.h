// The end-to-end metric catalogue and the sample statistics shared by
// lazyctrl_bench (which records the metrics) and lazyctrl_bench_compare
// (which judges two runs of them against the bounds in BENCHMARK.json).
#pragma once

#include <algorithm>
#include <cmath>
#include <string_view>
#include <vector>

namespace lazyctrl::e2e {

/// One end-to-end metric. Host-time metrics are medians of noisy wall
/// clock samples; simulated metrics are deterministic functions of the
/// workload and seed, so any change in them is a change in behaviour and
/// the comparator checks them for exact equality. Simulated latencies are
/// means: the latency model prices each forwarding path at a fixed cost,
/// so percentiles sit on a few model constants and cannot see a shift in
/// the path mix.
struct EndToEndMetric {
  std::string_view name;
  std::string_view unit;
  bool simulated;
};

inline constexpr EndToEndMetric kEndToEnd[] = {
    {"replay_flows_per_s", "flows/s", false},
    {"setup_s", "s", false},
    {"run_s", "s", false},
    {"peak_rss_mb", "MB", false},
    {"ckpt_save_ms", "ms", false},
    {"ckpt_restore_ms", "ms", false},
    {"packet_ins_per_kflow", "req/kflow", true},
    {"first_packet_mean_us", "sim_us", true},
    {"packet_latency_mean_us", "sim_us", true},
    {"delivered_frac", "ratio", true},
};

/// The catalogue entry named `name`, or nullptr.
inline const EndToEndMetric* find_end_to_end(std::string_view name) {
  for (const EndToEndMetric& m : kEndToEnd) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// q-quantile (q in [0, 1]) by linear interpolation between the closest
/// ranks; 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace lazyctrl::e2e
