#include "obs/metrics.h"

#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

namespace simulcast::obs {

void add_microseconds(Counter& us, std::chrono::nanoseconds elapsed, std::uint64_t& carry_ns) {
  carry_ns += static_cast<std::uint64_t>(elapsed.count());
  if (carry_ns < 1000) return;
  us.add(carry_ns / 1000);
  carry_ns %= 1000;
}

void Histogram::record(std::uint64_t value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::mean() const {
  return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::percentile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // 1-based target rank: the smallest recorded value v such that at least
  // ceil(q * count) of the recorded values are <= v.
  std::uint64_t target = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
  if (target == 0) target = 1;
  if (target > count) target = count;
  std::uint64_t cumulative = 0;
  for (const HistogramBucket& bucket : buckets) {
    cumulative += bucket.count;
    if (target <= cumulative)
      return (static_cast<double>(bucket.first) + static_cast<double>(bucket.last)) / 2.0;
  }
  // Only a hand-built snapshot whose count exceeds its buckets gets here.
  return std::numeric_limits<double>::quiet_NaN();
}

namespace {

// Node-based maps: references handed out stay valid across registration.
template <typename Metric>
using Registry = std::map<std::string, std::unique_ptr<Metric>, std::less<>>;

template <typename Metric>
Metric& find_or_create(Registry<Metric>& registry, std::string_view name) {
  const auto it = registry.find(name);
  if (it != registry.end()) return *it->second;
  return *registry.emplace(std::string(name), std::make_unique<Metric>()).first->second;
}

}  // namespace

struct Metrics::Impl {
  mutable std::mutex mutex;
  Registry<Counter> counters;
  Registry<Histogram> histograms;
};

Metrics::Impl& Metrics::impl() const {
  static Impl instance;
  return instance;
}

Metrics& Metrics::global() {
  static Metrics instance;
  return instance;
}

Counter& Metrics::counter(std::string_view name) {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return find_or_create(state.counters, name);
}

Histogram& Metrics::histogram(std::string_view name) {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return find_or_create(state.histograms, name);
}

MetricsSnapshot Metrics::snapshot() const {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  MetricsSnapshot out;
  out.counters.reserve(state.counters.size());
  for (const auto& [name, counter] : state.counters)
    out.counters.push_back({name, counter->value()});
  out.histograms.reserve(state.histograms.size());
  for (const auto& [name, histogram] : state.histograms) {
    HistogramSnapshot h;
    h.name = name;
    h.sum = histogram->sum();
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      const std::uint64_t in_bucket = histogram->bucket(i);
      if (in_bucket == 0) continue;
      h.buckets.push_back({Histogram::bucket_first(i), Histogram::bucket_last(i), in_bucket});
      h.count += in_bucket;
    }
    out.histograms.push_back(std::move(h));
  }
  return out;
}

void Metrics::reset() {
  Impl& state = impl();
  const std::lock_guard<std::mutex> lock(state.mutex);
  for (const auto& [name, counter] : state.counters) counter->reset();
  for (const auto& [name, histogram] : state.histograms) histogram->reset();
}

}  // namespace simulcast::obs
