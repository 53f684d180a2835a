// simbench: the repository benchmark harness.
//
// The harness drives the library only through its public calls
// (exec::Runner::run_batch, sim::run_execution, the testers, dist
// ensembles, crypto kernels, the net wire codec and obs::Metrics) and
// times them from the outside.  With tracing on it records a span around
// each public call it makes; spans stay in memory until the run ends and
// every per-layer number is an exact quantile of those spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/runner.h"
#include "net/transport.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Exact q-quantile (linear interpolation between order statistics, the
/// "inclusive" method) of `values`; NaN when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ---------------------------------------------------------------------------
// Spans

/// In-memory span store.  A disabled tracer records nothing and costs one
/// branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Interns a span name (do it outside timed regions).
  std::uint32_t intern(std::string_view name);

  /// Opens a span under the innermost open one; returns its handle.
  std::uint32_t begin(std::uint32_t name);
  void end(std::uint32_t handle);

  /// Durations (ns) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ns(std::string_view name) const;
  /// Summed duration (ns) of spans called `name`.
  [[nodiscard]] double total_ns(std::string_view name) const;
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  // handle of the enclosing span, 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  [[nodiscard]] std::int64_t find(std::string_view name) const;

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint32_t open_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::uint32_t name)
      : tracer_(tracer), handle_(tracer.enabled() ? tracer.begin(name) : 0) {}
  ~ScopedSpan() {
    if (handle_ != 0) tracer_.end(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

// ---------------------------------------------------------------------------
// Workloads

/// What a cell's verdicts must show (the paper's results).
enum class Expect {
  kViolated,     ///< CR violated (Lemma 5.2: copy / even-parity inputs)
  kIndependent,  ///< CR independent (uniform control)
  kParityAttack, ///< Lemma 6.4 under A*: CR gap ~ 1/4, G independent, XOR(W) = 0
};

/// One (protocol, adversary, ensemble) batch with its verdict expectation.
struct Cell {
  std::string name;
  std::string protocol;
  std::shared_ptr<const simulcast::dist::InputEnsemble> ensemble;
  simulcast::exec::RunSpec spec;
  std::size_t samples = 0;
  Expect expect = Expect::kIndependent;
  std::uint64_t seed = 0;  ///< batch seed, derived from the workload seed
};

struct Workload {
  std::string name;
  std::size_t n = 0;
  std::size_t threads = 1;
  simulcast::net::TransportKind transport = simulcast::net::TransportKind::kInProcess;
  /// Protocols timed per execution in the traced run (every workload reports
  /// the same set; those outside the campaign are probed at the workload's n).
  std::vector<std::string> traced_protocols;
  std::map<std::string, std::unique_ptr<simulcast::sim::ParallelBroadcastProtocol>> protocols;
  std::vector<Cell> cells;
};

[[nodiscard]] std::vector<std::string> workload_names();

/// The set-up the benchmark times: protocol construction through the
/// registry, ensembles, adversaries and per-cell seeds.  Throws
/// simulcast::UsageError on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

/// The exact counts of one campaign pass; identical on every pass with the
/// same seed and at every thread count, and all but net_frames (what a
/// backend moved) on every transport.
struct Counts {
  std::uint64_t executions = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t net_frames = 0;
  std::uint64_t payload_acquired = 0;
  std::uint64_t payload_reused = 0;
  friend bool operator==(const Counts&, const Counts&) = default;
};

struct CellOutcome {
  std::uint64_t digest = 0;     ///< over (announced, consistent, rounds, traffic) per sample
  double cr_gap = 0.0;
  bool cr_independent = false;
  bool g_independent = true;
};

struct PassResult {
  double campaign_s = 0.0;    ///< first batch to last verdict
  double execution_s = 0.0;   ///< summed execution phases of the batches
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;   ///< threw, quarantined, or inconsistent
  Counts counts;
  std::vector<CellOutcome> cells;
  std::vector<std::string> errors;  ///< correctness-gate failures
  /// The samples of every cell (kept only when requested).
  std::vector<std::vector<simulcast::exec::Sample>> samples;
};

/// How a pass executes: pool width and transport backend.
struct Shape {
  std::size_t threads = 1;
  simulcast::net::TransportKind transport = simulcast::net::TransportKind::kInProcess;
};
[[nodiscard]] inline Shape shape_of(const Workload& w) { return {w.threads, w.transport}; }

/// Runs every cell of the campaign once — batch, verdicts, gate.
[[nodiscard]] PassResult run_pass(const Workload& workload, Shape shape, Tracer& tracer,
                                  bool keep_samples);

/// Checks a later pass against the first: identical digests and counts.
/// Appends a finding per difference to `errors`.
void compare_passes(const PassResult& first, const PassResult& later, std::string_view label,
                    std::vector<std::string>& errors);

// ---------------------------------------------------------------------------
// Per-layer probes (traced run only)

/// name -> (value, unit)
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct ProbeContext {
  const Workload& workload;
  const PassResult& pass;  ///< a pass run with keep_samples
  std::uint64_t seed;
  double budget_s;         ///< wall budget for the replay probes
  Tracer& tracer;
};

/// Replays cells through sim::run_execution (per-execution spans), the
/// engine-overhead and transport A/B slices, and the kernel probes; adds
/// every per-layer metric they produce to `out` and gate failures to
/// `errors`.
void run_probes(const ProbeContext& ctx, MetricMap& out, std::vector<std::string>& errors);

}  // namespace perfbench
