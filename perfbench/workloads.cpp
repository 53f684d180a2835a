// Workload definitions, the campaign pass, and its correctness gate.
#include <algorithm>
#include <cmath>
#include <limits>

#include "adversary/adversaries.h"
#include "base/error.h"
#include "core/registry.h"
#include "dist/ensembles.h"
#include "harness.h"
#include "obs/metrics.h"
#include "stats/rng.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"

namespace perfbench {

using namespace simulcast;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// ---------------------------------------------------------------------------
// Tracer

std::uint32_t Tracer::intern(std::string_view name) {
  const std::int64_t found = find(name);
  if (found >= 0) return static_cast<std::uint32_t>(found);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t Tracer::find(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::int64_t>(i);
  return -1;
}

std::uint32_t Tracer::begin(std::uint32_t name) {
  spans_.push_back(Span{name, open_, 0, -1});
  spans_.back().start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  open_ = static_cast<std::uint32_t>(spans_.size());
  return open_;
}

void Tracer::end(std::uint32_t handle) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  Span& span = spans_[handle - 1];
  span.end_ns = now;
  open_ = span.parent;
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  const std::int64_t id = find(name);
  if (id < 0) return out;
  for (const Span& s : spans_)
    if (s.name == static_cast<std::uint32_t>(id) && s.end_ns >= 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

double Tracer::total_ns(std::string_view name) const {
  double total = 0.0;
  for (const double d : durations_ns(name)) total += d;
  return total;
}

// ---------------------------------------------------------------------------
// Workloads

namespace {

// The seven protocols of the E2 sweep: the registry minus seq-broadcast-ds,
// whose Lamport-signature traffic runs ~23 exec/s and would swamp a run.
const std::vector<std::string> kN4Protocols = {"seq-broadcast",       "cgma",        "chor-rabin",
                                               "gennaro",             "naive-commit-reveal",
                                               "flawed-pi-g",         "flawed-pi-g-mpc"};
const std::vector<std::string> kVssProtocols = {"gennaro", "cgma", "chor-rabin",
                                                "flawed-pi-g-mpc"};

// Executions per cell.  1500 is E2's size: at that size the Hoeffding radius
// (~0.18 at alpha = 0.01, plus the 0.02 margin) sits four standard errors
// below the 1/4 gap of the correlated ensembles, so the verdicts hold for
// every seed.  The A* cell needs enough mass on each of its 8 honest
// conditionings for the G tester and a CR gap within 0.05 of 1/4.
constexpr std::size_t kN4Samples = 1500;
constexpr std::size_t kParityAttackSamples = 2000;
constexpr std::size_t kVssSamples = 100;

const sim::ParallelBroadcastProtocol& protocol_of(Workload& w, const std::string& name) {
  auto& slot = w.protocols[name];
  if (!slot) slot = core::make_protocol(name);
  return *slot;
}

Cell make_cell(Workload& w, const std::string& protocol,
               std::shared_ptr<const dist::InputEnsemble> ensemble, std::size_t samples,
               Expect expect) {
  Cell cell;
  cell.protocol = protocol;
  cell.name = protocol + " x " + ensemble->name();
  cell.spec.protocol = &protocol_of(w, protocol);
  cell.spec.params.n = ensemble->bits();
  cell.spec.adversary = adversary::silent_factory();
  cell.ensemble = std::move(ensemble);
  cell.samples = samples;
  cell.expect = expect;
  return cell;
}

void add_n4_cells(Workload& w) {
  const std::shared_ptr<const dist::InputEnsemble> copy =
      std::make_shared<dist::NoisyCopyEnsemble>(4, 0.0);
  const std::shared_ptr<const dist::InputEnsemble> parity =
      std::make_shared<dist::EvenParityEnsemble>(4);
  const std::shared_ptr<const dist::InputEnsemble> uniform = dist::make_uniform(4);
  for (const std::string& p : kN4Protocols) {
    w.cells.push_back(make_cell(w, p, copy, kN4Samples, Expect::kViolated));
    w.cells.push_back(make_cell(w, p, parity, kN4Samples, Expect::kViolated));
    w.cells.push_back(make_cell(w, p, uniform, kN4Samples, Expect::kIndependent));
  }
  // E4's headline cell: Pi_G under A* (Lemma 6.4).
  Cell attack = make_cell(w, "flawed-pi-g", dist::make_uniform(5), kParityAttackSamples,
                          Expect::kParityAttack);
  attack.name = "flawed-pi-g x A*{1,3} x " + attack.ensemble->name();
  attack.spec.corrupted = {1, 3};
  attack.spec.adversary = adversary::parity_factory();
  w.cells.push_back(std::move(attack));
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"campaign-n4", "vss-n16", "campaign-n4-socket", "campaign-n4-4t"};
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  auto w = std::make_unique<Workload>();
  w->name = std::string(name);
  w->traced_protocols = kN4Protocols;
  if (name == "campaign-n4" || name == "campaign-n4-socket" || name == "campaign-n4-4t") {
    w->n = 4;
    if (name == "campaign-n4-socket") w->transport = net::TransportKind::kSocket;
    if (name == "campaign-n4-4t") w->threads = 4;
    add_n4_cells(*w);
  } else if (name == "vss-n16") {
    w->n = 16;
    const std::shared_ptr<const dist::InputEnsemble> uniform = dist::make_uniform(16);
    for (const std::string& p : kVssProtocols)
      w->cells.push_back(make_cell(*w, p, uniform, kVssSamples, Expect::kIndependent));
  } else {
    throw UsageError("unknown workload '" + std::string(name) + "'");
  }
  const stats::Rng master(seed);
  for (std::size_t i = 0; i < w->cells.size(); ++i) w->cells[i].seed = master.fork("cell", i)();
  return w;
}

// ---------------------------------------------------------------------------
// The campaign pass

namespace {

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const std::vector<exec::Sample>& samples) {
  Fnv h;
  for (const exec::Sample& s : samples) {
    h.mix(s.announced.size());
    for (std::size_t i = 0; i < s.announced.size(); ++i) h.mix(s.announced.get(i) ? 1 : 0);
    h.mix(s.consistent ? 1 : 0);
    h.mix(s.rounds);
    const sim::TrafficStats& t = s.traffic;
    for (const std::size_t v : {t.messages, t.point_to_point, t.broadcasts, t.wire_bytes,
                                t.wire_delivered_bytes, t.dropped, t.delayed, t.blocked,
                                t.crashed})
      h.mix(v);
  }
  return h.value();
}

std::uint64_t counter(const obs::MetricsSnapshot& snap, std::string_view name) {
  for (const obs::CounterSnapshot& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

bool is_honest(const Cell& cell, std::size_t party) {
  return std::find(cell.spec.corrupted.begin(), cell.spec.corrupted.end(), party) ==
         cell.spec.corrupted.end();
}

}  // namespace

PassResult run_pass(const Workload& w, Shape shape, Tracer& tracer, bool keep_samples) {
  const std::uint32_t kBatchSpan = tracer.intern("exec.run_batch");
  const std::uint32_t kCrSpan = tracer.intern("testers.test_cr");
  const std::uint32_t kGSpan = tracer.intern("testers.test_g");
  const std::uint32_t kGateSpan = tracer.intern("harness.gate");
  // The Runner builds each execution's config from the process default.
  net::set_default_transport_kind(shape.transport);
  exec::Runner runner(shape.threads);
  exec::BatchOptions options;
  options.quarantine = true;  // a throwing execution is counted, not fatal
  runner.set_options(options);

  PassResult out;
  const obs::MetricsSnapshot before = obs::Metrics::global().snapshot();
  const Clock::time_point start = Clock::now();
  for (const Cell& cell : w.cells) {
    exec::BatchResult batch;
    {
      const ScopedSpan span(tracer, kBatchSpan);
      batch = runner.run_batch(cell.spec, *cell.ensemble, cell.samples, cell.seed);
    }
    out.execution_s += batch.report.phases.execution;

    CellOutcome outcome;
    {
      const ScopedSpan span(tracer, kCrSpan);
      const testers::CrVerdict cr = testers::test_cr(batch.samples, cell.spec.corrupted);
      outcome.cr_gap = cr.max_gap;
      outcome.cr_independent = cr.independent;
    }
    if (cell.expect == Expect::kParityAttack) {
      const ScopedSpan span(tracer, kGSpan);
      const testers::GVerdict g = testers::test_g(batch.samples, cell.spec.corrupted);
      outcome.g_independent = g.independent;
    }

    const ScopedSpan gate(tracer, kGateSpan);
    const auto fail = [&](const std::string& what) {
      out.errors.push_back(cell.name + ": " + what);
    };
    out.attempted += cell.samples;
    out.failed += batch.report.quarantine.size();
    if (!batch.report.quarantine.empty())
      fail(std::to_string(batch.report.quarantine.size()) + " executions threw, first: " +
           batch.report.quarantine.front().reason);
    if (batch.report.completed + batch.report.quarantine.size() != cell.samples)
      fail("only " + std::to_string(batch.report.completed) + " of " +
           std::to_string(cell.samples) + " executions completed");
    std::size_t inconsistent = 0, wrong = 0, odd_parity = 0;
    for (const exec::Sample& s : batch.samples) {
      if (!s.consistent) {
        ++inconsistent;
        continue;
      }
      // Correctness: every honest party's input is announced as sent.
      for (std::size_t i = 0; i < s.inputs.size(); ++i)
        if (is_honest(cell, i) && s.announced.get(i) != s.inputs.get(i)) {
          ++wrong;
          break;
        }
      if (s.announced.parity()) ++odd_parity;
    }
    out.failed += inconsistent;
    if (inconsistent > 0) fail(std::to_string(inconsistent) + " inconsistent executions");
    if (wrong > 0) fail(std::to_string(wrong) + " executions announced a wrong honest input");
    switch (cell.expect) {
      case Expect::kViolated:
        if (outcome.cr_independent) fail("CR should be violated (Lemma 5.2)");
        break;
      case Expect::kIndependent:
        if (!outcome.cr_independent) fail("CR should hold on uniform inputs");
        break;
      case Expect::kParityAttack:
        if (outcome.cr_independent || std::abs(outcome.cr_gap - 0.25) >= 0.05)
          fail("CR gap " + std::to_string(outcome.cr_gap) + " should be ~1/4 (Lemma 6.4)");
        if (!outcome.g_independent) fail("G should hold under A* (Lemma 6.4)");
        if (odd_parity > 0) fail("XOR(W) should be 0 in every execution (Claim 6.6)");
        break;
    }
    outcome.digest = digest(batch.samples);
    out.cells.push_back(outcome);
    out.counts.executions += batch.report.completed;
    out.counts.rounds += batch.report.total_rounds;
    out.counts.messages += batch.report.traffic.messages;
    out.counts.wire_bytes += batch.report.traffic.wire_bytes;
    if (keep_samples) out.samples.push_back(std::move(batch.samples));
  }
  out.campaign_s = seconds_between(start, Clock::now());
  const obs::MetricsSnapshot after = obs::Metrics::global().snapshot();
  out.counts.net_frames = counter(after, "net.frames") - counter(before, "net.frames");
  out.counts.payload_acquired = counter(after, "sim.alloc.payload_acquired") -
                                counter(before, "sim.alloc.payload_acquired");
  out.counts.payload_reused =
      counter(after, "sim.alloc.payload_reused") - counter(before, "sim.alloc.payload_reused");
  return out;
}

void compare_passes(const PassResult& first, const PassResult& later, std::string_view label,
                    std::vector<std::string>& errors) {
  if (!(later.counts == first.counts))
    errors.push_back(std::string(label) + ": exact counts differ");
  for (std::size_t i = 0; i < first.cells.size() && i < later.cells.size(); ++i)
    if (later.cells[i].digest != first.cells[i].digest)
      errors.push_back(std::string(label) + ": cell " + std::to_string(i) + " digest differs");
}

}  // namespace perfbench
