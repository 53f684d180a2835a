// Process-wide metrics registry (obs::Metrics): named counters and
// log-linear histograms the engine, the simulator and the protocols feed
// while a batch runs.
//
// Recording is lock-free (relaxed atomic adds), so worker threads update
// metrics without synchronizing; registration and snapshotting take a
// mutex but happen outside the hot path (a caller registers once, keeps
// the reference — function-local statics are the intended idiom — and the
// snapshot runs at experiment end).  Values are std::uint64_t: every
// tracked quantity (rounds, bytes, microseconds) is a nonnegative integer,
// and integer sums stay exact.
//
// Like tracing, metrics only observe: no RNG, seed or sample value is
// touched, so outputs are bit-identical whether or not anyone reads the
// registry (DESIGN.md section 8).  The deterministic metrics (rounds,
// traffic) are also identical across thread counts; only the latency
// histograms vary run to run.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace simulcast::obs {

/// A monotonically increasing named value.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Adds `elapsed` to the microsecond counter `us`.  The sub-microsecond
/// remainder stays in `carry_ns` — the caller's thread_local, one per
/// counter — so many short intervals add up instead of each rounding down
/// to zero.
void add_microseconds(Counter& us, std::chrono::nanoseconds elapsed, std::uint64_t& carry_ns);

/// A histogram over all of u64 with one fixed log-linear layout, so no
/// call site chooses a range and no value falls outside one.  Every value
/// below 32 has a bucket of its own; each power-of-two range
/// [2^e, 2^(e+1)) from 32 up is split into 16 equal buckets of width
/// 2^(e-4).  A bucket [first, last] above 32 is thus narrower than
/// first/16, and its midpoint lies within 1/32 of every value it holds.
class Histogram {
 public:
  /// 32 single-value buckets plus 16 for each of the 59 octaves 2^5..2^63.
  static constexpr std::size_t kBucketCount = 32 + 16 * 59;

  /// The bucket holding `value`.
  [[nodiscard]] static constexpr std::size_t bucket_index(std::uint64_t value) {
    if (value < 32) return static_cast<std::size_t>(value);
    // shift = floor(log2 value) - 4, so value >> shift is in [16, 32).
    const int shift = 59 - std::countl_zero(value);
    return static_cast<std::size_t>(shift) * 16 + static_cast<std::size_t>(value >> shift);
  }
  /// The smallest and largest value bucket `index` holds.
  [[nodiscard]] static constexpr std::uint64_t bucket_first(std::size_t index) {
    if (index < 32) return index;
    return (std::uint64_t{16} + index % 16) << (index / 16 - 1);
  }
  [[nodiscard]] static constexpr std::uint64_t bucket_last(std::size_t index) {
    if (index < 32) return index;
    return bucket_first(index) + ((std::uint64_t{1} << (index / 16 - 1)) - 1);
  }

  void record(std::uint64_t value);
  void reset();

  [[nodiscard]] std::uint64_t bucket(std::size_t index) const {
    return buckets_.at(index).load(std::memory_order_relaxed);
  }
  /// The number of recorded values: the sum of the bucket counts.
  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& bucket : buckets_) total += bucket.load(std::memory_order_relaxed);
    return total;
  }
  [[nodiscard]] std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

/// One non-empty bucket of a histogram snapshot: `count` recorded values
/// in [first, last].
struct HistogramBucket {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint64_t count = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;  ///< the sum of the bucket counts
  std::uint64_t sum = 0;
  std::vector<HistogramBucket> buckets;  ///< non-empty buckets, ascending

  /// sum/count; 0 for an empty histogram.
  [[nodiscard]] double mean() const;

  /// The q-quantile (q clamped to [0,1]): the midpoint of the bucket that
  /// holds rank ceil(q * count), clamped to [1, count].  Exact below 32 and
  /// within 1/32 of the exact order statistic above that.  NaN for an
  /// empty histogram (serialized as JSON null).
  [[nodiscard]] double percentile(double q) const;
};

/// A point-in-time copy of every registered metric, sorted by name (so the
/// serialized form is deterministic given deterministic values).
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const { return counters.empty() && histograms.empty(); }
};

/// The registry.  counter()/histogram() return stable references: register
/// once (a function-local static), record forever.
class Metrics {
 public:
  static Metrics& global();

  /// Find or create the named metric.
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every value, keeping registrations (existing references stay
  /// valid) — the per-test / per-experiment reset.
  void reset();

 private:
  Metrics() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace simulcast::obs
