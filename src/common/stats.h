// Small statistics helpers shared by the evaluation harness.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/time.h"

namespace lazyctrl {

namespace ckpt {
class StateAccess;  // snapshot codec (src/ckpt): sole private-state reader
}

/// Online mean/min/max/variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  /// Bit-exact equality of every accumulated moment (count, mean, M2,
  /// min, max, sum) — the bar the sharded replay is held to.
  [[nodiscard]] bool identical_to(const RunningStats& o) const noexcept {
    return count_ == o.count_ && mean_ == o.mean_ && m2_ == o.m2_ &&
           min_ == o.min_ && max_ == o.max_ && sum_ == o.sum_;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  friend class ckpt::StateAccess;

  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Accumulates samples into fixed-width time buckets (e.g. 2-hour windows
/// over a 24-hour trace, as used by the paper's Figs. 7-9).
class TimeBucketSeries {
 public:
  /// `bucket_width` must be > 0; `horizon` defines the covered range
  /// [0, horizon); samples outside are clamped into the last bucket.
  TimeBucketSeries(SimDuration bucket_width, SimDuration horizon);

  void add(SimTime when, double value) { add_n(when, value, 1); }
  /// Counts an event without a value (for rate series).
  void add_event(SimTime when) { add(when, 1.0); }
  /// Adds `count` samples of the same `value` at `when` in O(1).
  /// Header-inline with a last-bucket memo: replay feeds samples in
  /// near-sorted time order, so the common case is two compares instead of
  /// a 64-bit division per sample on the per-flow hot path.
  void add_n(SimTime when, double value, std::uint64_t count) {
    if (count == 0) return;
    std::size_t idx;
    if (when >= memo_begin_ && when < memo_end_) {
      idx = memo_idx_;
    } else {
      idx = bucket_index(when);
      memo_idx_ = idx;
      memo_begin_ = static_cast<SimTime>(idx) * width_;
      memo_end_ = memo_begin_ + width_;
      if (idx == buckets_.size() - 1) {
        // The last bucket also absorbs everything past the horizon.
        memo_end_ = std::numeric_limits<SimTime>::max();
      }
    }
    buckets_[idx].sum += value * static_cast<double>(count);
    buckets_[idx].events += count;
  }

  /// Bit-exact equality: same geometry and identical sum/event pairs in
  /// every bucket.
  [[nodiscard]] bool identical_to(const TimeBucketSeries& o) const noexcept {
    if (width_ != o.width_ || buckets_.size() != o.buckets_.size()) {
      return false;
    }
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i].sum != o.buckets_[i].sum ||
          buckets_[i].events != o.buckets_[i].events) {
        return false;
      }
    }
    return true;
  }

  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] SimDuration bucket_width() const noexcept { return width_; }

  /// Sum of sample values in bucket `i`.
  [[nodiscard]] double bucket_sum(std::size_t i) const;
  /// Number of samples in bucket `i`.
  [[nodiscard]] std::uint64_t bucket_events(std::size_t i) const;
  /// Mean sample value in bucket `i` (0 when empty).
  [[nodiscard]] double bucket_mean(std::size_t i) const;
  /// Events per second within bucket `i`.
  [[nodiscard]] double bucket_rate_per_sec(std::size_t i) const;

  /// Human-readable "lo-hi" hour label for bucket `i` (e.g. "2-4").
  [[nodiscard]] std::string bucket_label_hours(std::size_t i) const;

 private:
  friend class ckpt::StateAccess;

  struct Bucket {
    double sum = 0.0;
    std::uint64_t events = 0;
  };

  [[nodiscard]] std::size_t bucket_index(SimTime when) const noexcept {
    const auto idx = static_cast<std::size_t>(
        std::max<SimTime>(when, 0) / width_);
    return std::min(idx, buckets_.size() - 1);
  }

  SimDuration width_;
  std::vector<Bucket> buckets_;
  // Last-bucket memo: [memo_begin_, memo_end_) maps to memo_idx_.
  SimTime memo_begin_ = 1;  ///< empty interval until first add
  SimTime memo_end_ = 0;
  std::size_t memo_idx_ = 0;
};

/// Exact quantiles over a stored sample set. Intended for moderate sample
/// counts (the harness records per-packet latencies in the thousands).
class QuantileSketch {
 public:
  void add(double x) { samples_.push_back(x); }
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  /// Returns the q-quantile (q in [0,1]) by nearest-rank; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double mean() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace lazyctrl
