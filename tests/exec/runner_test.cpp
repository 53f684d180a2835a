#include "exec/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "base/error.h"
#include "core/registry.h"
#include "core/session.h"
#include "crypto/commitment.h"
#include "obs/metrics.h"
#include "obs/records.h"
#include "obs/trace.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/gstarstar_tester.h"
#include "testers/sb_tester.h"

namespace simulcast::exec {
namespace {

RunSpec spec_for(const sim::ParallelBroadcastProtocol& proto, std::size_t n) {
  static const crypto::HashCommitmentScheme scheme;
  RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = n;
  spec.params.commitments = &scheme;
  spec.adversary = adversary::silent_factory();
  return spec;
}

// The engine's contract: for every registered protocol, the sample vector is
// byte-identical whether the batch ran serially or sharded across a pool.
TEST(Runner, ParallelMatchesSerialForAllProtocols) {
  const auto ens = dist::make_uniform(4);
  for (const std::string& name : core::protocol_names()) {
    const auto proto = core::make_protocol(name);
    const RunSpec spec = spec_for(*proto, 4);
    // seq-broadcast-ds signs everything; a handful of executions suffices.
    const std::size_t count = name == "seq-broadcast-ds" ? 3 : 10;
    const auto serial = Runner(1).run_batch(spec, *ens, count, 7).samples;
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const auto parallel = Runner(threads).run_batch(spec, *ens, count, 7).samples;
      ASSERT_EQ(serial.size(), parallel.size()) << name;
      for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_TRUE(serial[i] == parallel[i]) << name << " rep " << i;
    }
  }
}

TEST(Runner, ParallelMatchesSerialFixedInput) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const BitVec input = BitVec::from_string("1010");
  const auto serial = Runner(1).run_batch(spec, input, 16, 11).samples;
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    const auto parallel = Runner(threads).run_batch(spec, input, 16, 11).samples;
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_TRUE(serial[i] == parallel[i]) << "rep " << i;
  }
}

TEST(Runner, BatchReportAggregatesTraffic) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto batch = Runner(2).run_batch(spec, *ens, 12, 3);
  EXPECT_EQ(batch.report.executions, 12u);
  EXPECT_EQ(batch.report.threads, 2u);
  EXPECT_GT(batch.report.wall_seconds, 0.0);
  EXPECT_GT(batch.report.throughput, 0.0);
  std::size_t messages = 0;
  std::size_t rounds = 0;
  for (const Sample& s : batch.samples) {
    messages += s.traffic.messages;
    rounds += s.rounds;
  }
  EXPECT_EQ(batch.report.traffic.messages, messages);
  EXPECT_EQ(batch.report.total_rounds, rounds);
  EXPECT_GT(messages, 0u);
}

// The pool clamps to the batch size; the report must record the workers
// that actually ran, not the requested width.
TEST(Runner, BatchReportThreadsRecordsActualWorkers) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto clamped = Runner(16).run_batch(spec, *ens, 4, 3);
  EXPECT_EQ(clamped.report.threads, 4u);  // 16 requested, only 4 executions
  const auto serial = Runner(1).run_batch(spec, *ens, 4, 3);
  EXPECT_EQ(serial.report.threads, 1u);
}

// run_batch times its phases: sampling (input drawing) and execution are
// both nonzero for an ensemble batch, and wall_seconds is the execution
// phase.  Evaluation stays zero until a tester harness accumulates into it.
TEST(Runner, BatchReportCarriesPhaseBreakdown) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto batch = Runner(2).run_batch(spec, *ens, 16, 3);
  EXPECT_GT(batch.report.phases.sampling, 0.0);
  EXPECT_GT(batch.report.phases.execution, 0.0);
  EXPECT_DOUBLE_EQ(batch.report.phases.execution, batch.report.wall_seconds);
  EXPECT_DOUBLE_EQ(batch.report.phases.evaluation, 0.0);
}

/// The record a driver would emit, stripped of wall-clock noise: timing
/// fields zeroed and latency histograms (named *_us) dropped, leaving only
/// the quantities the determinism contract pins.
obs::ExperimentRecord canonical_record(const BatchReport& report) {
  obs::ExperimentRecord rec;
  rec.id = "test/trace-determinism";
  rec.reproduced = true;
  rec.perf = report;
  rec.perf.threads = 1;  // the pool width is allowed to differ
  rec.perf.wall_seconds = 0.0;
  rec.perf.throughput = 0.0;
  rec.perf.phases = {};
  rec.metrics = obs::Metrics::global().snapshot();
  auto& hists = rec.metrics.histograms;
  hists.erase(std::remove_if(hists.begin(), hists.end(),
                             [](const obs::HistogramSnapshot& h) {
                               return h.name.size() >= 3 &&
                                      h.name.compare(h.name.size() - 3, 3, "_us") == 0;
                             }),
              hists.end());
  return rec;
}

// The observability determinism contract (DESIGN.md section 8): tracing
// only observes, so the sample vector AND the canonicalized record JSON
// are byte-identical with tracing on or off, at every thread count.  Under
// the sanitize label this also runs the trace buffers through TSan.
TEST(Runner, TracingNeverPerturbsSamplesOrRecords) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  constexpr std::size_t kReps = 24;

  obs::set_trace_enabled(false);
  obs::clear_events();
  obs::Metrics::global().reset();
  const auto baseline = Runner(1).run_batch(spec, *ens, kReps, 7);
  const std::string baseline_json = obs::to_json(canonical_record(baseline.report));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    obs::set_trace_enabled(true);
    obs::clear_events();
    obs::Metrics::global().reset();
    const auto traced = Runner(threads).run_batch(spec, *ens, kReps, 7);
    const std::string traced_json = obs::to_json(canonical_record(traced.report));
    const std::vector<obs::Event> events = obs::drain_events(obs::EventKind::kTrace);
    obs::set_trace_enabled(false);

    EXPECT_FALSE(events.empty()) << "traced run must actually record spans";
    ASSERT_EQ(baseline.samples.size(), traced.samples.size()) << threads;
    for (std::size_t i = 0; i < baseline.samples.size(); ++i)
      EXPECT_TRUE(baseline.samples[i] == traced.samples[i])
          << "threads " << threads << " rep " << i;
    EXPECT_EQ(baseline_json, traced_json) << "threads " << threads;
  }
}

// Fault injection rides the same determinism contract: a nontrivial
// FaultPlan (drops + delays + a crash + a partition) yields identical
// samples — outputs AND per-execution fault counts — for one seed at
// threads {1, 2, 8}, with tracing on and off.  Under the sanitize label
// this runs the fault path (DRBG draws, crash bookkeeping, partition
// filters) through TSan across a real pool.
TEST(Runner, FaultInjectionDeterministicAcrossThreadsAndTracing) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 5);
  RunConfig config;
  config.faults.drop_probability = 0.1;
  config.faults.max_delay = 1;
  config.faults.crashes.push_back({2, 1});
  config.faults.partitions.push_back({{0, 1}, 1, 3});
  const auto ens = dist::make_uniform(5);
  constexpr std::size_t kReps = 24;

  obs::set_trace_enabled(false);
  obs::clear_events();
  const auto baseline = Runner(1, config).run_batch(spec, *ens, kReps, 13);
  std::size_t faults_seen = 0;
  for (const Sample& s : baseline.samples)
    faults_seen += s.traffic.dropped + s.traffic.delayed + s.traffic.blocked + s.traffic.crashed;
  EXPECT_GT(faults_seen, 0u) << "the plan must actually inject faults";

  for (const bool tracing : {false, true}) {
    obs::set_trace_enabled(tracing);
    obs::clear_events();
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const auto rerun = Runner(threads, config).run_batch(spec, *ens, kReps, 13);
      ASSERT_EQ(baseline.samples.size(), rerun.samples.size());
      for (std::size_t i = 0; i < baseline.samples.size(); ++i)
        EXPECT_TRUE(baseline.samples[i] == rerun.samples[i])
            << "tracing " << tracing << " threads " << threads << " rep " << i;
      EXPECT_EQ(baseline.report.traffic, rerun.report.traffic);
    }
    obs::clear_events();
  }
  obs::set_trace_enabled(false);
}

// The Runner's RunConfig plan, the one source of faults, must reach every
// execution.
TEST(Runner, DefaultFaultPlanReachesBatches) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);

  RunConfig config;
  config.faults.crashes.push_back({1, 0});
  const auto faulty = Runner(1, config).run_batch(spec, *ens, 4, 5);
  EXPECT_EQ(faulty.report.traffic.crashed, 4u) << "party 1 crashes once per execution";

  const auto clean = Runner(1, RunConfig{}).run_batch(spec, *ens, 4, 5);
  EXPECT_EQ(clean.report.traffic.crashed, 0u);
}

RunConfig parse_args(std::vector<const char*> args) {
  args.insert(args.begin(), "driver");
  return parse_run_config(static_cast<int>(args.size()), const_cast<char**>(args.data()));
}

// Garbage in SIMULCAST_THREADS must abort loudly (exit 2), never silently
// truncate ("4abc" -> 4) or fall back to serial ("abc" -> 1).  The command
// line wins over the environment.
TEST(EnvThreadsDeathTest, RejectsMalformedValues) {
  for (const char* bad : {"4abc", "abc", "-2", "0"}) {
    ASSERT_EQ(setenv("SIMULCAST_THREADS", bad, 1), 0);
    EXPECT_EXIT((void)parse_args({}), testing::ExitedWithCode(2), "SIMULCAST_THREADS") << bad;
  }
  ASSERT_EQ(setenv("SIMULCAST_THREADS", "3", 1), 0);
  EXPECT_EQ(parse_args({}).threads, 3u);
  EXPECT_EQ(parse_args({"--threads=5"}).threads, 5u);
  ASSERT_EQ(unsetenv("SIMULCAST_THREADS"), 0);
  EXPECT_EQ(parse_args({}).threads, 1u);
}

/// A protocol whose machines cannot be built: exercises exception flow out
/// of worker threads.
class ThrowingProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "throwing"; }
  [[nodiscard]] std::size_t rounds(std::size_t) const override { return 1; }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(sim::PartyId, bool,
                                                       const sim::ProtocolParams&) const override {
    throw ProtocolError("throwing protocol: make_party");
  }
};

// A throwing execution must propagate out of the pool (first exception wins)
// and must not deadlock the join, at any thread count.
TEST(Runner, ExceptionPropagatesWithoutDeadlock) {
  const ThrowingProtocol proto;
  RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = 4;
  spec.adversary = adversary::silent_factory();
  const BitVec input(4);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    EXPECT_THROW((void)Runner(threads).run_batch(spec, input, 64, 1), ProtocolError);
  }
}

TEST(Runner, Validation) {
  const auto proto = core::make_protocol("gennaro");
  const auto ens = dist::make_uniform(4);
  RunSpec null_spec;
  EXPECT_THROW((void)Runner(2).run_batch(null_spec, *ens, 1, 1), UsageError);
  RunSpec spec = spec_for(*proto, 5);
  EXPECT_THROW((void)Runner(2).run_batch(spec, *ens, 1, 1), UsageError);  // width 4 != n 5
  EXPECT_THROW((void)Runner(2).run_batch(spec, BitVec(4), 1, 1), UsageError);
  EXPECT_THROW((void)Runner(2).run_batch(spec, {BitVec(5)}, {1, 2}), UsageError);  // 1 input, 2 seeds
  // Chaos aimed at a party the execution does not have disturbs nothing:
  // rejected before sampling, on every batch shape.
  RunConfig aimed_past_n;
  aimed_past_n.transport = net::TransportKind::kSocket;
  aimed_past_n.chaos = net::parse_chaos_spec("loss:0.5,party:9");
  const RunSpec spec4 = spec_for(*proto, 4);
  EXPECT_THROW((void)Runner(1, aimed_past_n).run_batch(spec4, *ens, 1, 1), UsageError);
  EXPECT_THROW((void)Runner(1, aimed_past_n).run_batch(spec4, BitVec(4), 1, 1), UsageError);
  EXPECT_THROW((void)Runner(1, aimed_past_n).run_batch(spec4, {BitVec(4)}, {1}), UsageError);
  // So is a crash of a party the execution does not have — also with
  // quarantine on, which must not book it as every repetition failing.
  RunConfig crash_past_n;
  crash_past_n.faults.crashes.push_back({9, 0});
  crash_past_n.batch.quarantine = true;
  EXPECT_THROW((void)Runner(1, crash_past_n).run_batch(spec4, *ens, 1, 1), UsageError);
  EXPECT_THROW((void)Runner(1, crash_past_n).run_batch(spec4, BitVec(4), 1, 1), UsageError);
  EXPECT_THROW((void)Runner(1, crash_past_n).run_batch(spec4, {BitVec(4)}, {1}), UsageError);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  parallel_for(0, 8, [&](std::size_t) { FAIL() << "body called for empty range"; });
}

TEST(ParallelFor, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for(hits.size(), 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// A Runner takes its width from its RunConfig unless given one explicitly.
TEST(DefaultThreads, OverrideAndClear) {
  RunConfig config;
  config.threads = 5;
  EXPECT_EQ(Runner(0, config).threads(), 5u);
  EXPECT_EQ(Runner(3, config).threads(), 3u);
  EXPECT_EQ(Runner(0, RunConfig{}).threads(), 1u);
}

// Session-level sweeps ride the same engine: a sharded batch must equal the
// one-at-a-time facade calls it replaced.
TEST(SessionBatch, MatchesSerialSessions) {
  const core::Session session("gennaro", 4);
  std::vector<BitVec> inputs;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 8; ++i) {
    inputs.push_back(BitVec(4, i & 0xF));
    seeds.push_back(1000 + i);
  }
  const core::SessionBatch batch = session.run_batch_seeded(
      inputs, seeds, {1}, adversary::copy_last_factory(0), 4);
  ASSERT_EQ(batch.results.size(), inputs.size());
  EXPECT_EQ(batch.report.executions, inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const core::SessionResult one =
        session.run_with_adversary(inputs[i], {1}, adversary::copy_last_factory(0), seeds[i]);
    EXPECT_EQ(batch.results[i].announced, one.announced) << i;
    EXPECT_EQ(batch.results[i].consistent, one.consistent) << i;
    EXPECT_EQ(batch.results[i].correct, one.correct) << i;
    EXPECT_EQ(batch.results[i].rounds, one.rounds) << i;
    EXPECT_EQ(batch.results[i].traffic.messages, one.traffic.messages) << i;
    EXPECT_EQ(batch.results[i].traffic.point_to_point, one.traffic.point_to_point) << i;
    EXPECT_EQ(batch.results[i].traffic.broadcasts, one.traffic.broadcasts) << i;
    EXPECT_EQ(batch.results[i].traffic.wire_bytes, one.traffic.wire_bytes) << i;
    EXPECT_EQ(batch.results[i].traffic.wire_delivered_bytes, one.traffic.wire_delivered_bytes) << i;
  }
}

// A legacy batch (default options) reports full resilience accounting:
// every slot completed, nothing quarantined, not partial.
TEST(Runner, LegacyBatchReportsFullCompletion) {
  const auto proto = core::make_protocol("gennaro");
  const RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto batch = Runner(2).run_batch(spec, *ens, 6, 3);
  EXPECT_EQ(batch.report.completed, batch.report.executions);
  EXPECT_FALSE(batch.report.partial);
  EXPECT_TRUE(batch.report.quarantine.empty());
}

// Throughput's 0/0 guard: coarse clocks can measure wall_seconds == 0.0 for
// a tiny batch, and inf/NaN would poison the JSON sink (non-finite doubles
// serialize as null).  Both the engine's helper and BatchReport::operator+=
// must report 0, never a non-finite value.
TEST(SafeThroughput, ZeroWallClockReportsZeroNotInf) {
  EXPECT_DOUBLE_EQ(safe_throughput(100, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_throughput(0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(safe_throughput(10, 2.0), 5.0);
  EXPECT_TRUE(std::isfinite(safe_throughput(1, 1e-300)));

  BatchReport a;
  a.executions = 50;
  a.completed = 50;
  a.wall_seconds = 0.0;
  BatchReport b;
  b.executions = 50;
  b.completed = 50;
  b.wall_seconds = 0.0;
  BatchReport merged = a;
  merged += b;
  EXPECT_EQ(merged.executions, 100u);
  EXPECT_DOUBLE_EQ(merged.throughput, 0.0);
  EXPECT_TRUE(std::isfinite(merged.throughput));
}

// operator+= must combine the v4 resilience accounting, not drop it:
// completed adds, partial ORs, quarantine concatenates.
TEST(Merge, CombinesResilienceAccounting) {
  BatchReport a;
  a.executions = 10;
  a.completed = 9;
  a.partial = false;
  a.quarantine.push_back({3, 77, "timeout: stuck"});
  BatchReport b;
  b.executions = 10;
  b.completed = 6;
  b.partial = true;
  BatchReport merged = a;
  merged += b;
  EXPECT_EQ(merged.completed, 15u);
  EXPECT_TRUE(merged.partial);
  ASSERT_EQ(merged.quarantine.size(), 1u);
  EXPECT_EQ(merged.quarantine[0].rep, 3u);
  EXPECT_EQ(merged.quarantine[0].seed, 77u);
}

// A repeated knob must exit 2 with the usage line: silently last-winning on
// "--threads=2 --threads=8" hides which of two contradictory widths the
// campaign actually ran with.  Same rule for every knob class, including
// the resilience ones.
TEST(ConfigureThreadsDeathTest, DuplicateKnobExitsWithUsage) {
  const auto run = [](std::vector<const char*> args) { (void)parse_args(std::move(args)); };
  EXPECT_EXIT(run({"--threads=2", "--threads=8"}), testing::ExitedWithCode(2),
              "duplicate argument '--threads'");
  EXPECT_EXIT(run({"--json=a.json", "--json=b.json"}), testing::ExitedWithCode(2),
              "duplicate argument '--json'");
  EXPECT_EXIT(run({"--retries=1", "--retries=2"}), testing::ExitedWithCode(2),
              "duplicate argument '--retries'");
  EXPECT_EXIT(run({"--resume", "--checkpoint=c.ckpt", "--resume"}), testing::ExitedWithCode(2),
              "duplicate argument '--resume'");
  // Different knobs on one line stay legal.
  const RunConfig config = parse_args({"--threads=2", "--json=a.json"});
  EXPECT_EQ(config.threads, 2u);
  EXPECT_EQ(config.json_path, "a.json");
}

TEST(ConfigureThreadsDeathTest, ResumeRequiresCheckpoint) {
  EXPECT_EXIT((void)parse_args({"--resume"}), testing::ExitedWithCode(2),
              "--resume requires --checkpoint");
}

// parallel_for's documented error contract: when several workers throw, the
// FIRST CAPTURED EXCEPTION BY WORKER INDEX is rethrown.  A barrier inside
// the body makes every worker throw on the same round (each of the 4
// workers holds exactly one of the 4 indices, so none can finish early),
// turning the usually racy multi-throw case deterministic: the rethrown
// message must be worker 0's, which runs on trace lane 1.
TEST(ParallelFor, FirstExceptionByWorkerIndexWins) {
  constexpr std::size_t kWorkers = 4;
  std::atomic<std::size_t> arrived{0};
  try {
    parallel_for(kWorkers, kWorkers, [&](std::size_t) {
      arrived.fetch_add(1);
      while (arrived.load() < kWorkers) std::this_thread::yield();
      throw std::runtime_error("boom from lane " + std::to_string(obs::thread_lane()));
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from lane 1");
  }
}

// ScopedPhase accounts its elapsed time even when the timed body throws —
// phase totals must not silently lose the time spent in failed work.
TEST(ScopedPhase, AccumulatesElapsedWhenBodyThrows) {
  double slot = 0.0;
  EXPECT_THROW(
      {
        const ScopedPhase timer(slot);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        throw std::runtime_error("phase body failed");
      },
      std::runtime_error);
  EXPECT_GT(slot, 0.0);
}

// ---------------------------------------------------------- the ledger ----

/// RAII: an empty ledger on both sides of a test.
struct LedgerGuard {
  LedgerGuard() { clear_ledger(); }
  ~LedgerGuard() { clear_ledger(); }
};

// The Sb tester runs its real and ideal executions as one batch: one
// campaign id and 2 x samples executions per call.
TEST(Ledger, SbTesterCallIsOneBatch) {
  const LedgerGuard guard;
  const auto proto = core::make_protocol("seq-broadcast");
  RunSpec spec = spec_for(*proto, 4);
  spec.corrupted = {3};
  spec.adversary = adversary::copy_last_factory(0);
  (void)testers::test_sb(spec, *dist::make_uniform(4), 50, 5);
  const Ledger books = ledger();
  EXPECT_EQ(books.campaigns.size(), 1u);
  EXPECT_EQ(books.report.executions, 100u);
  EXPECT_GT(books.report.phases.evaluation, 0.0);
}

// The G** tester runs every fixed input of its sweep as one batch.
TEST(Ledger, GStarStarTesterCallIsOneBatch) {
  const LedgerGuard guard;
  const auto proto = core::make_protocol("seq-broadcast");
  RunSpec spec = spec_for(*proto, 4);
  spec.corrupted = {3};
  spec.adversary = adversary::copy_last_factory(0);
  const testers::GssVerdict verdict = testers::test_gstarstar(spec, 10, 5);
  const Ledger books = ledger();
  EXPECT_EQ(books.campaigns.size(), 1u);
  EXPECT_EQ(books.report.executions, verdict.executions);
  EXPECT_EQ(verdict.executions, 2u * 8u * 10u);
}

// The ledger holds each batch's report as the batch returned it, sampling
// time included.
TEST(Ledger, EnsembleBatchCarriesSamplingTime) {
  const LedgerGuard guard;
  const auto proto = core::make_protocol("gennaro");
  const auto batch = Runner(2).run_batch(spec_for(*proto, 4), *dist::make_uniform(4), 16, 3);
  const Ledger books = ledger();
  EXPECT_GT(books.report.phases.sampling, 0.0);
  EXPECT_DOUBLE_EQ(books.report.phases.sampling, batch.report.phases.sampling);
  EXPECT_DOUBLE_EQ(books.report.phases.execution, batch.report.phases.execution);
  EXPECT_EQ(books.report.executions, 16u);
}

// The commitment scheme is part of a batch's identity: the same inputs and
// seeds under another scheme are another campaign, while a repeated batch
// keeps its id and is listed once.
TEST(Ledger, CommitmentSchemeSeparatesCampaignIds) {
  const LedgerGuard guard;
  const auto proto = core::make_protocol("naive-commit-reveal");
  const crypto::HashCommitmentScheme hash_scheme;
  const crypto::PedersenCommitmentScheme pedersen_scheme;
  RunSpec spec = spec_for(*proto, 4);
  const BitVec input(4);
  std::vector<std::uint64_t> ids;
  for (const crypto::CommitmentScheme* scheme :
       {static_cast<const crypto::CommitmentScheme*>(nullptr),
        static_cast<const crypto::CommitmentScheme*>(&hash_scheme),
        static_cast<const crypto::CommitmentScheme*>(&pedersen_scheme)}) {
    spec.params.commitments = scheme;
    ids.push_back(Runner(1).run_batch(spec, {input}, {7}).report.campaign);
  }
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_NE(ids[0], ids[2]);
  EXPECT_NE(ids[1], ids[2]);
  EXPECT_EQ(Runner(1).run_batch(spec, {input}, {7}).report.campaign, ids[2]);
  EXPECT_EQ(ledger().campaigns, ids);
  EXPECT_EQ(ledger().report.executions, 4u);
}

// The adversary is part of a batch's identity: the same spec, inputs and
// seeds under another adversary factory are another campaign, so a resume
// never restores one adversary's samples into the other's batch.
TEST(Ledger, AdversarySeparatesCampaignIds) {
  const LedgerGuard guard;
  const auto proto = core::make_protocol("seq-broadcast");
  RunSpec spec = spec_for(*proto, 4);
  spec.corrupted = {3};
  const BitVec input(4);
  std::vector<std::uint64_t> ids;
  for (adversary::AdversaryFactory factory :
       {adversary::silent_factory(), adversary::passive_factory(*proto, spec.params),
        adversary::copy_last_factory(0)}) {
    spec.adversary = std::move(factory);
    ids.push_back(Runner(1).run_batch(spec, {input}, {7}).report.campaign);
  }
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_NE(ids[0], ids[2]);
  EXPECT_NE(ids[1], ids[2]);
  EXPECT_EQ(ledger().campaigns, ids);
}

// test_cr and test_g stamp their own evaluation time; they run nothing.
TEST(Ledger, TestersStampEvaluationTime) {
  const LedgerGuard guard;
  const auto proto = core::make_protocol("gennaro");
  RunSpec spec = spec_for(*proto, 4);
  spec.corrupted = {2};
  const auto batch = Runner(1).run_batch(spec, *dist::make_uniform(4), 200, 9);
  const double before = ledger().report.phases.evaluation;
  (void)testers::test_cr(batch.samples, spec.corrupted);
  (void)testers::test_g(batch.samples, spec.corrupted);
  const Ledger books = ledger();
  EXPECT_GT(books.report.phases.evaluation, before);
  EXPECT_EQ(books.report.executions, 200u);
  EXPECT_EQ(books.campaigns.size(), 1u);
}

}  // namespace
}  // namespace simulcast::exec
