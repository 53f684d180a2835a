// Live-telemetry suite (DESIGN.md section 13): percentile math on the
// fixed-bucket histograms, the structured event log, the heartbeat status
// stream, and the correlation ids that join the three artifacts of one run
// (trace spans, log events, status heartbeats) to the experiment record.
//
// The headline test mirrors Runner.TracingNeverPerturbsSamplesOrRecords:
// enabling --log and --status must change NO deterministic output — samples
// and canonicalized records stay bit-identical at threads {1, 2, 8}, on
// both transports, and through an interrupt+resume cycle.  Under the
// sanitize label the reporter thread's reads of the engine atomics and the
// per-thread log rings run through TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/registry.h"
#include "crypto/commitment.h"
#include "dist/ensembles.h"
#include "exec/runner.h"
#include "net/transport.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/records.h"
#include "obs/status.h"
#include "obs/trace.h"

namespace simulcast {
namespace {

// ---------------------------------------------------------- percentiles ----

obs::HistogramSnapshot histogram_fixture() {
  obs::HistogramSnapshot h;
  h.name = "exec.rounds_per_execution";
  h.lo = 0;
  h.hi = 8;
  h.buckets = {0, 0, 0, 32, 0, 0, 0, 0};
  h.count = 32;
  h.sum = 96;
  return h;
}

// The golden-file values: all 32 observations in bucket [3,4), linearly
// interpolated by rank.  p50 = 3 + 16/32, p95 = 3 + 31/32, p99 = 3 + 32/32.
TEST(Percentile, GoldenFixtureValues) {
  const obs::HistogramSnapshot h = histogram_fixture();
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 3.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 3.96875);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 4.0);
  // Rank clamps to 1 at the bottom: the first observation's interpolated
  // position, not the bucket edge.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.03125);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_DOUBLE_EQ(h.percentile(2.0), h.percentile(1.0));
}

// Observations below `lo` have no position inside the range; any rank that
// lands in the underflow mass reports the range floor.
TEST(Percentile, UnderflowTailReportsLo) {
  obs::HistogramSnapshot h;
  h.lo = 10;
  h.hi = 20;
  h.buckets = {0, 0, 5, 0, 0};
  h.underflow = 5;
  h.count = 10;
  EXPECT_DOUBLE_EQ(h.percentile(0.1), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);  // rank 5 is the last underflow
  // Rank 6 is the first in-bucket observation: bucket [14,16).
  EXPECT_DOUBLE_EQ(h.percentile(0.6), 14.4);
}

// Observations at or above `hi` likewise: ranks past the bucketed mass
// report the range ceiling, never read past the bucket array.
TEST(Percentile, OverflowTailReportsHi) {
  obs::HistogramSnapshot h;
  h.lo = 0;
  h.hi = 10;
  h.buckets = {5, 0, 0, 0, 0};
  h.overflow = 5;
  h.count = 10;
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.6), 10.0);  // rank 6 is overflow mass
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 2.0);   // rank 5 closes bucket [0,2)
}

// An empty histogram has no quantiles: NaN in memory, null on the wire —
// never 0 (a lie) and never "nan" (invalid JSON).
TEST(Percentile, EmptyHistogramIsNaNAndSerializesNull) {
  obs::HistogramSnapshot h;
  h.lo = 0;
  h.hi = 8;
  h.buckets = {0, 0, 0, 0};
  EXPECT_TRUE(std::isnan(h.percentile(0.5)));
  EXPECT_EQ(obs::Json::number(h.percentile(0.5)), "null");

  obs::ExperimentRecord rec;
  rec.id = "E0/empty-hist";
  rec.metrics.histograms.push_back(h);
  const std::string doc = obs::to_json(rec);
  EXPECT_NE(doc.find("\"p50\": null"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"p95\": null"), std::string::npos);
  EXPECT_NE(doc.find("\"p99\": null"), std::string::npos);
}

// The live registry path: record through obs::Metrics, snapshot, quantile.
TEST(Percentile, RegistryHistogramRoundTrip) {
  obs::Metrics::global().reset();
  auto& hist = obs::Metrics::global().histogram("telemetry.test_values", 0, 100, 10);
  for (std::uint64_t v = 0; v < 100; ++v) hist.record(v);
  const obs::MetricsSnapshot snap = obs::Metrics::global().snapshot();
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name != "telemetry.test_values") continue;
    EXPECT_DOUBLE_EQ(h.percentile(0.50), 50.0);  // rank 50 closes [40,50)
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 99.0);
    return;
  }
  FAIL() << "telemetry.test_values not in snapshot";
}

// ------------------------------------------------------------- event log ----

/// RAII: event gates closed and buffers clean on both sides of a test,
/// even on assertion failure.
struct TelemetryGuard {
  TelemetryGuard() { reset(); }
  ~TelemetryGuard() { reset(); }
  static void reset() {
    obs::set_log_enabled(false);
    obs::set_trace_enabled(false);
    obs::set_current_campaign(0);
    obs::set_current_exec(0);
    obs::clear_events();
    obs::clear_status();
    exec::clear_ledger();
  }
};

/// Fresh scratch directory per test (gtest's TempDir is per-process).
std::filesystem::path scratch_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / ("simulcast_telemetry_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);)
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST(Log, DisabledSinkRecordsNothing) {
  const TelemetryGuard guard;
  ASSERT_FALSE(obs::log_enabled());
  obs::log_event(obs::LogLevel::kInfo, "ignored-event", {{"a", 1}});
  EXPECT_TRUE(obs::drain_events(obs::EventKind::kLog).empty());
  EXPECT_EQ(obs::flush_log(""), "");  // no sink: nothing written, no throw
}

TEST(Log, RecordsLevelsArgsAndCorrelationIds) {
  const TelemetryGuard guard;
  obs::set_log_enabled(true);
  ASSERT_TRUE(obs::log_enabled());
  obs::set_current_campaign(0xE0);
  obs::set_current_exec(0xBEEF);
  obs::log_event(obs::LogLevel::kWarn, "unit-event", {{"slot", 5}, {"round", 2}}, "free text");
  obs::set_current_exec(0);
  obs::log_event(obs::LogLevel::kDebug, "second-event");

  const std::vector<obs::Event> records = obs::drain_events(obs::EventKind::kLog);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_STREQ(records[0].name, "unit-event");
  EXPECT_EQ(records[0].level, obs::LogLevel::kWarn);
  EXPECT_EQ(records[0].campaign, 0xE0u);
  EXPECT_EQ(records[0].exec, 0xBEEFu);
  ASSERT_EQ(records[0].arg_count, 2);
  EXPECT_STREQ(records[0].arg_keys[0], "slot");
  EXPECT_EQ(records[0].arg_values[0], 5u);
  EXPECT_EQ(records[0].detail, "free text");
  EXPECT_EQ(records[1].exec, 0u);
  EXPECT_LE(records[0].ts_us, records[1].ts_us) << "drain sorts by timestamp";
}

// The exact wire shape, pinned: one flat JSON object per line, correlation
// ids as 16-hex strings or null, args inline, detail only when present.
TEST(Log, LineRenderingIsPinned) {
  obs::Event record;
  record.name = "net-stall";
  record.ph = 'L';
  record.level = obs::LogLevel::kError;
  record.lane = 3;
  record.ts_us = 42;
  record.campaign = 0xE0;
  record.exec = 0;
  record.arg_keys[0] = "slot";
  record.arg_values[0] = 5;
  record.arg_count = 1;
  record.detail = "peer went away";
  EXPECT_EQ(obs::log_line(record),
            "{\"ts_us\":42,\"level\":\"error\",\"event\":\"net-stall\",\"lane\":3,"
            "\"campaign\":\"00000000000000e0\",\"exec\":null,\"slot\":5,"
            "\"detail\":\"peer went away\"}");
}

// Spans and log events share one per-thread store: at capacity the
// thread's oldest event is overwritten, whatever its kind, and every loss
// is counted in obs.dropped_events.
TEST(Events, OverflowDropsOldestOfBothKindsAndCounts) {
  const TelemetryGuard guard;
  obs::set_trace_enabled(true);
  obs::set_log_enabled(true);
  obs::Metrics::global().reset();
  constexpr std::size_t kCapacity = obs::kMaxEventsPerThread;
  constexpr std::size_t kExtra = 10;
  // Even i records a span, odd i a log event.
  for (std::size_t i = 0; i < kCapacity + kExtra; ++i) {
    if (i % 2 == 0) {
      obs::TraceSpan span("flood");
      span.arg("i", i);
    } else {
      obs::log_event(obs::LogLevel::kDebug, "flood", {{"i", i}});
    }
  }
  const std::vector<obs::Event> spans = obs::drain_events(obs::EventKind::kTrace);
  const std::vector<obs::Event> logs = obs::drain_events(obs::EventKind::kLog);
  ASSERT_EQ(spans.size() + logs.size(), kCapacity);
  ASSERT_EQ(spans.size(), kCapacity / 2);
  // The oldest kExtra events, five of each kind, were overwritten; the
  // survivors run from there to the newest.
  EXPECT_EQ(spans.front().arg_values[0], kExtra);
  EXPECT_EQ(logs.front().arg_values[0], kExtra + 1);
  EXPECT_EQ(spans.back().arg_values[0], kCapacity + kExtra - 2);
  EXPECT_EQ(logs.back().arg_values[0], kCapacity + kExtra - 1);
  std::uint64_t dropped = 0;
  for (const obs::CounterSnapshot& c : obs::Metrics::global().snapshot().counters)
    if (c.name == "obs.dropped_events") dropped = c.value;
  EXPECT_EQ(dropped, kExtra);
}

TEST(Log, FlushAppendsAcrossBatches) {
  const TelemetryGuard guard;
  const auto dir = scratch_dir("log_flush");
  const std::string path = (dir / "campaign.log").string();
  obs::set_log_enabled(true);
  obs::log_event(obs::LogLevel::kInfo, "first");
  obs::log_event(obs::LogLevel::kInfo, "second");
  EXPECT_EQ(obs::flush_log(path), path);
  EXPECT_EQ(read_lines(path).size(), 2u);
  obs::log_event(obs::LogLevel::kInfo, "third");
  EXPECT_EQ(obs::flush_log(path), path);  // append, not truncate
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[2].find("\"event\":\"third\""), std::string::npos);
}

// ------------------------------------------------------ correlation ids ----

TEST(Correlation, HexIsFixedWidthLowercase) {
  EXPECT_EQ(obs::correlation_hex(0), "0000000000000000");
  EXPECT_EQ(obs::correlation_hex(0xE0), "00000000000000e0");
  EXPECT_EQ(obs::correlation_hex(0xDEADBEEFCAFEF00DULL), "deadbeefcafef00d");
}

TEST(Correlation, ExecIdsAreDeterministicDistinctAndNonzero) {
  const std::uint64_t campaign = 0x1234'5678'9abc'def0ULL;
  std::set<std::uint64_t> ids;
  for (std::uint64_t rep = 0; rep < 1000; ++rep) {
    const std::uint64_t id = obs::exec_correlation_id(campaign, rep);
    EXPECT_NE(id, 0u);
    EXPECT_EQ(id, obs::exec_correlation_id(campaign, rep)) << "pure function of inputs";
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u) << "per-rep ids must not collide in a batch";
  EXPECT_NE(obs::exec_correlation_id(campaign, 0), obs::exec_correlation_id(campaign + 1, 0));
}

TEST(Correlation, CampaignRegistryDedupsOrdersAndCaps) {
  const TelemetryGuard guard;
  const auto note_campaign = [](std::uint64_t id) {
    exec::BatchReport report;
    report.campaign = id;
    exec::ledger_add(report);
  };
  note_campaign(0);  // ignored: 0 means "no batch"
  note_campaign(7);
  note_campaign(9);
  note_campaign(7);
  const std::vector<std::uint64_t> seen = exec::ledger().campaigns;
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 7u);
  EXPECT_EQ(seen[1], 9u);
  for (std::uint64_t id = 100; id < 100 + 2 * exec::kCampaignListCap; ++id) note_campaign(id);
  EXPECT_EQ(exec::ledger().campaigns.size(), exec::kCampaignListCap)
      << "sweeps with thousands of probe batches must not bloat the record";
}

// --------------------------------------------------------- status stream ----

TEST(Status, IntervalMustBePositive) {
  EXPECT_THROW(obs::StatusReporter({}, "", 0.0), UsageError);
  EXPECT_THROW(obs::StatusReporter({}, "", -1.0), UsageError);
  { const obs::StatusReporter reporter({}, "", 2.5); }  // a positive period runs
  obs::clear_status();
}

exec::RunSpec spec_for(const sim::ParallelBroadcastProtocol& proto, std::size_t n) {
  static const crypto::HashCommitmentScheme scheme;
  exec::RunSpec spec;
  spec.protocol = &proto;
  spec.params.n = n;
  spec.params.commitments = &scheme;
  spec.adversary = adversary::silent_factory();
  return spec;
}

/// A RunConfig with a fast heartbeat into `status_path`.
exec::RunConfig status_config(const std::string& status_path) {
  exec::RunConfig config;
  config.status_path = status_path;
  config.status_interval = 0.002;
  return config;
}

TEST(Status, HeartbeatStreamFromRealBatch) {
  const TelemetryGuard guard;
  const auto dir = scratch_dir("status_batch");
  const std::string path = (dir / "status.jsonl").string();

  const auto proto = core::make_protocol("gennaro");
  const exec::RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const auto batch = exec::Runner(2, status_config(path)).run_batch(spec, *ens, 24, 7);
  ASSERT_NE(batch.report.campaign, 0u);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_FALSE(lines.empty()) << "the reporter's final beat always lands on disk";
  const std::string campaign_hex = obs::correlation_hex(batch.report.campaign);
  std::uint64_t previous = 0;
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"campaign\":\"" + campaign_hex + "\""), std::string::npos) << line;
    // completed is monotone within the stream (cheap parse: the field is
    // rendered as an integer).
    const std::size_t at = line.find("\"completed\":");
    ASSERT_NE(at, std::string::npos) << line;
    const std::uint64_t completed = std::strtoull(line.c_str() + at + 12, nullptr, 10);
    EXPECT_GE(completed, previous) << line;
    previous = completed;
  }
  const std::string& final_line = lines.back();
  EXPECT_NE(final_line.find("\"final\":true"), std::string::npos);
  EXPECT_NE(final_line.find("\"total\":24"), std::string::npos);
  EXPECT_NE(final_line.find("\"batch_completed\":24"), std::string::npos);
  EXPECT_EQ(previous, 24u);
}

// A multi-batch driver's stream: `completed` keeps counting across batches
// (the record's perf.completed sums the same way, so the final heartbeat
// and the record agree — the collect.sh --status contract).
TEST(Status, CompletedIsMonotoneAcrossBatches) {
  const TelemetryGuard guard;
  const auto dir = scratch_dir("status_multi");
  const std::string path = (dir / "status.jsonl").string();

  const auto proto = core::make_protocol("gennaro");
  const exec::RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  const exec::Runner runner(1, status_config(path));
  (void)runner.run_batch(spec, *ens, 10, 7);
  (void)runner.run_batch(spec, *ens, 6, 8);

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"completed\":16"), std::string::npos) << lines.back();
  EXPECT_NE(lines.back().find("\"batch_completed\":6"), std::string::npos);
}

// ------------------------------------------------- the headline contract ----

/// The record a driver would emit, stripped of everything that may
/// legitimately differ between a telemetry-on and a telemetry-off run: the
/// metrics block entirely (telemetry registers its own counters, e.g.
/// obs.dropped_events and exec.restored_slots, so counter sets differ
/// by construction) and the wall-clock fields.  Every remaining field is
/// pinned by the never-perturbs contract.
obs::ExperimentRecord canonical_record(const exec::BatchReport& report) {
  obs::ExperimentRecord rec;
  rec.id = "test/telemetry-determinism";
  rec.reproduced = true;
  rec.perf.report = report;
  rec.perf.report.threads = 1;  // the pool width is allowed to differ
  rec.perf.report.wall_seconds = 0.0;
  rec.perf.report.throughput = 0.0;
  rec.perf.report.phases = {};
  return rec;
}

// Enabling --log and --status changes no deterministic output: samples,
// canonical record JSON and the campaign correlation id are bit-identical
// at threads {1, 2, 8}, on both transports, and through a deterministic
// interrupt+resume cycle — the obs::Status reporter thread and the log
// rings run concurrently with the pool throughout (TSan-swept under the
// sanitize label).
TEST(Telemetry, NeverPerturbsSamplesOrRecords) {
  const TelemetryGuard guard;
  const auto dir = scratch_dir("never_perturbs");
  const auto proto = core::make_protocol("gennaro");
  const exec::RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  constexpr std::size_t kReps = 16;

  ASSERT_FALSE(obs::log_enabled());
  const auto baseline = exec::Runner(1, exec::RunConfig{}).run_batch(spec, *ens, kReps, 7);
  ASSERT_NE(baseline.report.campaign, 0u);
  const std::string baseline_json = obs::to_json(canonical_record(baseline.report));

  exec::RunConfig config = status_config((dir / "status.jsonl").string());
  config.log_path = (dir / "campaign.log").string();
  obs::set_log_enabled(true);
  std::size_t label = 0;
  for (const net::TransportKind kind : {net::TransportKind::kInProcess,
                                        net::TransportKind::kSocket}) {
    config.transport = kind;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      const std::string context = std::string(net::transport_kind_name(kind)) +
                                  " threads=" + std::to_string(threads);

      const auto telemetered = exec::Runner(threads, config).run_batch(spec, *ens, kReps, 7);
      EXPECT_EQ(telemetered.report.campaign, baseline.report.campaign) << context;
      ASSERT_EQ(baseline.samples.size(), telemetered.samples.size()) << context;
      for (std::size_t i = 0; i < kReps; ++i)
        EXPECT_TRUE(baseline.samples[i] == telemetered.samples[i])
            << context << " rep " << i;
      EXPECT_EQ(baseline_json, obs::to_json(canonical_record(telemetered.report))) << context;

      // Interrupt at the halfway slot, then resume — still telemetry-on.
      const std::string ckpt = (dir / ("t" + std::to_string(label++) + ".ckpt")).string();
      exec::RunConfig resumable = config;
      resumable.batch.checkpoint_path = ckpt;
      resumable.batch.resume = true;
      exec::clear_shutdown();
      exec::set_stop_after(kReps / 2);
      (void)exec::Runner(threads, resumable).run_batch(spec, *ens, kReps, 7);
      exec::clear_shutdown();
      const auto resumed = exec::Runner(threads, resumable).run_batch(spec, *ens, kReps, 7);
      EXPECT_EQ(resumed.report.campaign, baseline.report.campaign) << context;
      for (std::size_t i = 0; i < kReps; ++i)
        EXPECT_TRUE(baseline.samples[i] == resumed.samples[i])
            << context << " resumed rep " << i;
      EXPECT_EQ(baseline_json, obs::to_json(canonical_record(resumed.report))) << context;
    }
  }
  exec::clear_shutdown();
}

// ------------------------------------------------- three-artifact join ----

// One run, three artifacts: the trace spans, the log events and the status
// heartbeats all carry the SAME campaign id as the batch report (and the
// record metadata via the exec ledger), and the same per-rep execution ids.
TEST(Telemetry, ArtifactsJoinOnCorrelationIds) {
  const TelemetryGuard guard;
  const auto dir = scratch_dir("join");
  const std::string status_path = (dir / "status.jsonl").string();
  obs::set_trace_enabled(true);  // we drain in-process
  obs::set_log_enabled(true);

  const auto proto = core::make_protocol("gennaro");
  const exec::RunSpec spec = spec_for(*proto, 4);
  const auto ens = dist::make_uniform(4);
  constexpr std::size_t kReps = 8;
  const auto batch = exec::Runner(2, status_config(status_path)).run_batch(spec, *ens, kReps, 11);

  const std::uint64_t campaign = batch.report.campaign;
  ASSERT_NE(campaign, 0u);
  std::set<std::uint64_t> expected_execs;
  for (std::uint64_t rep = 0; rep < kReps; ++rep)
    expected_execs.insert(obs::exec_correlation_id(campaign, rep));

  // Record metadata: finish_experiment fills campaigns from the ledger.
  const std::vector<std::uint64_t> noted = exec::ledger().campaigns;
  EXPECT_NE(std::find(noted.begin(), noted.end(), campaign), noted.end());

  // Trace: every rep span names the campaign and one expected exec id, and
  // collectively the spans cover the whole batch.
  std::set<std::uint64_t> traced_execs;
  for (const obs::Event& event : obs::drain_events(obs::EventKind::kTrace)) {
    if (event.name == nullptr || std::string_view(event.name) != "rep") continue;
    std::uint64_t span_campaign = 0;
    std::uint64_t span_exec = 0;
    for (std::uint8_t a = 0; a < event.arg_count; ++a) {
      if (std::string_view(event.arg_keys[a]) == "campaign") span_campaign = event.arg_values[a];
      if (std::string_view(event.arg_keys[a]) == "exec") span_exec = event.arg_values[a];
    }
    EXPECT_EQ(span_campaign, campaign);
    EXPECT_TRUE(expected_execs.count(span_exec) == 1) << span_exec;
    traced_execs.insert(span_exec);
  }
  EXPECT_EQ(traced_execs, expected_execs);

  // Log: the batch lifecycle events carry the campaign id.
  bool saw_begin = false;
  for (const obs::Event& record : obs::drain_events(obs::EventKind::kLog)) {
    if (std::string_view(record.name) == "batch-begin" && record.campaign == campaign)
      saw_begin = true;
  }
  EXPECT_TRUE(saw_begin) << "batch-begin must be logged with the campaign id";

  // Status: the heartbeats name the campaign, and the final beat's
  // last_exec is one of the batch's execution ids.
  const std::vector<std::string> lines = read_lines(status_path);
  ASSERT_FALSE(lines.empty());
  const std::string campaign_hex = obs::correlation_hex(campaign);
  EXPECT_NE(lines.back().find("\"campaign\":\"" + campaign_hex + "\""), std::string::npos);
  bool last_exec_joins = false;
  for (const std::uint64_t exec_id : expected_execs)
    if (lines.back().find("\"last_exec\":\"" + obs::correlation_hex(exec_id) + "\"") !=
        std::string::npos)
      last_exec_joins = true;
  EXPECT_TRUE(last_exec_joins) << lines.back();
}

}  // namespace
}  // namespace simulcast
