#include "obs/events.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace simulcast::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
std::atomic<bool> g_log_enabled{false};
}  // namespace detail

namespace {

constexpr std::size_t kBlockEvents = 1024;
using Block = std::array<Event, kBlockEvents>;

/// One thread's ring of events, oldest first.
struct ThreadStore {
  std::deque<Block> blocks;
  std::size_t head = 0;  ///< the oldest event's index in blocks.front()
  std::size_t size = 0;

  Event& at(std::size_t i) {
    const std::size_t slot = head + i;
    return blocks[slot / kBlockEvents][slot % kBlockEvents];
  }

  void push(Event&& event) {
    if (size == kMaxEventsPerThread) {
      --size;
      if (++head == kBlockEvents) {
        blocks.pop_front();
        head = 0;
      }
      Metrics::global().counter("obs.dropped_events").add(1);
    }
    if (head + size == blocks.size() * kBlockEvents) blocks.emplace_back();
    at(size) = std::move(event);
    ++size;
  }

  void clear() {
    blocks.clear();
    head = 0;
    size = 0;
  }

  /// Moves the events of `kind` into `out` and compacts the rest in place,
  /// so a drain needs no memory beyond what it returns.
  void drain_into(EventKind kind, std::vector<Event>& out) {
    const auto wanted = [kind](const Event& event) {
      return event.is_log() == (kind == EventKind::kLog);
    };
    std::size_t matching = 0;
    for (std::size_t i = 0; i < size; ++i)
      if (wanted(at(i))) ++matching;
    out.reserve(out.size() + matching);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < size; ++i) {
      Event& event = at(i);
      if (wanted(event))
        out.push_back(std::move(event));
      else if (kept++ != i)
        at(kept - 1) = std::move(event);
    }
    size = kept;
    blocks.resize((head + size + kBlockEvents - 1) / kBlockEvents);
  }
};

std::mutex& registry_mutex() {
  static std::mutex m;
  return m;
}

/// Owns every thread's store; entries outlive their threads so a drain sees
/// lanes whose workers already exited.
std::vector<std::shared_ptr<ThreadStore>>& registry() {
  static std::vector<std::shared_ptr<ThreadStore>> stores;
  return stores;
}

ThreadStore& local_store() {
  thread_local std::shared_ptr<ThreadStore> store = [] {
    auto fresh = std::make_shared<ThreadStore>();
    const std::lock_guard<std::mutex> lock(registry_mutex());
    registry().push_back(fresh);
    return fresh;
  }();
  return *store;
}

thread_local std::uint32_t t_lane = 0;

std::chrono::steady_clock::time_point epoch() {
  static const std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  return start;
}

}  // namespace

namespace detail {

std::uint64_t now_us() {
  const auto elapsed = std::chrono::steady_clock::now() - epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
}

void record_event(Event event) {
  local_store().push(std::move(event));
}

}  // namespace detail

void set_trace_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

void set_log_enabled(bool on) {
  detail::g_log_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_lane(std::uint32_t lane) {
  t_lane = lane;
}

std::uint32_t thread_lane() {
  return t_lane;
}

std::vector<Event> drain_events(EventKind kind) {
  std::vector<Event> out;
  {
    const std::lock_guard<std::mutex> lock(registry_mutex());
    for (const std::shared_ptr<ThreadStore>& store : registry()) store->drain_into(kind, out);
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.lane < b.lane;
  });
  return out;
}

void clear_events() {
  const std::lock_guard<std::mutex> lock(registry_mutex());
  for (const std::shared_ptr<ThreadStore>& store : registry()) store->clear();
}

}  // namespace simulcast::obs
