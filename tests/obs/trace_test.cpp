// Tests for the tracing engine (obs::Trace) and the metrics registry
// (obs::Metrics): span/instant shapes, lane assignment, the Perfetto JSON
// document against a golden fixture, sink path semantics, histogram edge
// cases, and the describe-vs-JSON no-drift guarantee for metrics.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "base/error.h"
#include "core/report.h"
#include "obs/metrics.h"

namespace simulcast::obs {
namespace {

// ---------------------------------------------------------------- trace ----

/// Scoped trace state: pins the enabled flag for one test and leaves the
/// process disabled with an empty store afterwards, so tests cannot leak
/// events into each other.
class TraceSandbox {
 public:
  explicit TraceSandbox(bool enabled) {
    set_trace_enabled(enabled);
    clear_events();
  }
  ~TraceSandbox() {
    set_trace_enabled(false);
    clear_events();
  }
};

TEST(Trace, DisabledRecordsNothing) {
  const TraceSandbox sandbox(false);
  EXPECT_FALSE(trace_enabled());
  {
    TraceSpan span("work");
    span.arg("rounds", 3);
  }
  trace_instant("tick", {{"bytes", 7}});
  EXPECT_TRUE(drain_events(EventKind::kTrace).empty());
}

TEST(Trace, SpanAndInstantShape) {
  const TraceSandbox sandbox(true);
  EXPECT_TRUE(trace_enabled());
  {
    TraceSpan span("work");
    span.arg("rounds", 3);
    span.arg("bytes", 160);
  }
  trace_instant("tick", {{"bytes", 7}});

  const std::vector<Event> events = drain_events(EventKind::kTrace);
  ASSERT_EQ(events.size(), 2u);

  const Event& span = events[0];
  EXPECT_STREQ(span.name, "work");
  EXPECT_EQ(span.ph, 'X');
  EXPECT_EQ(span.lane, 0u);
  ASSERT_EQ(span.arg_count, 2);
  EXPECT_STREQ(span.arg_keys[0], "rounds");
  EXPECT_EQ(span.arg_values[0], 3u);
  EXPECT_STREQ(span.arg_keys[1], "bytes");
  EXPECT_EQ(span.arg_values[1], 160u);

  const Event& instant = events[1];
  EXPECT_STREQ(instant.name, "tick");
  EXPECT_EQ(instant.ph, 'i');
  ASSERT_EQ(instant.arg_count, 1);
  EXPECT_EQ(instant.arg_values[0], 7u);
  EXPECT_GE(instant.ts_us, span.ts_us);
}

TEST(Trace, SpanDropsArgsBeyondCapacity) {
  const TraceSandbox sandbox(true);
  {
    TraceSpan span("work");
    for (std::uint64_t a = 0; a < Event::kMaxArgs + 2; ++a) span.arg("k", a);
  }
  const std::vector<Event> events = drain_events(EventKind::kTrace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].arg_count, Event::kMaxArgs);
}

TEST(Trace, LaneAssignmentTagsEvents) {
  const TraceSandbox sandbox(true);
  EXPECT_EQ(thread_lane(), 0u);
  set_thread_lane(5);
  trace_instant("tick");
  set_thread_lane(0);
  const std::vector<Event> events = drain_events(EventKind::kTrace);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].lane, 5u);
}

/// Hand-built events with fixed timestamps: the deterministic input for
/// the sort and golden-document tests.
std::vector<Event> fixed_events() {
  Event span;
  span.name = "round";
  span.ph = 'X';
  span.lane = 1;
  span.ts_us = 10;
  span.dur_us = 25;
  span.arg_keys[0] = "round";
  span.arg_values[0] = 2;
  span.arg_keys[1] = "messages";
  span.arg_values[1] = 20;
  span.arg_count = 2;

  Event instant;
  instant.name = "round-traffic";
  instant.ph = 'i';
  instant.lane = 0;
  instant.ts_us = 40;
  instant.arg_keys[0] = "bytes";
  instant.arg_values[0] = 160;
  instant.arg_count = 1;

  Event bare;
  bare.name = "finish_experiment";
  bare.ph = 'i';
  bare.lane = 0;
  bare.ts_us = 55;
  return {span, instant, bare};
}

TEST(Trace, DrainMergesAndSortsByTimestamp) {
  const TraceSandbox sandbox(true);
  for (const Event& event : {fixed_events()[2], fixed_events()[0], fixed_events()[1]})
    detail::record_event(event);
  const std::vector<Event> events = drain_events(EventKind::kTrace);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ts_us, 10u);
  EXPECT_EQ(events[1].ts_us, 40u);
  EXPECT_EQ(events[2].ts_us, 55u);
  EXPECT_TRUE(drain_events(EventKind::kTrace).empty()) << "drain must clear the buffers";
}

std::string data_path(const std::string& name) {
  return std::string(SIMULCAST_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The golden file pins the Chrome trace-event shape byte for byte:
// metadata rows (process_name + one thread_name per lane), ph/ts/tid on
// every event, dur on spans, s:"t" on instants, args objects.
TEST(Trace, GoldenTraceDocument) {
  const std::string actual = trace_document(fixed_events());
  const std::string expected = read_file(data_path("golden_trace.json"));
  if (expected != actual)
    std::ofstream(data_path("golden_trace.json.actual"), std::ios::binary) << actual;
  EXPECT_EQ(expected, actual)
      << "trace shape drift — diff against golden_trace.json.actual";
}

TEST(Trace, FilenameAndStemSanitizeLikeTheSink) {
  EXPECT_EQ(trace_filename("E2/cr-impossibility"), "TRACE_E2_cr-impossibility.json");
  EXPECT_EQ(trace_filename("a b\tc"), "TRACE_a_b_c.json");
  EXPECT_THROW((void)experiment_stem(""), UsageError);
  EXPECT_THROW((void)experiment_stem("///"), UsageError);
  EXPECT_THROW((void)experiment_stem(" \t\n "), UsageError);
}

TEST(Trace, WritesExactFileOrIntoDirectory) {
  namespace fs = std::filesystem;
  const TraceSandbox sandbox(true);
  const fs::path dir = fs::temp_directory_path() / "simulcast_trace_test";
  fs::remove_all(dir);

  trace_instant("tick");
  const std::string exact = (dir / "nested" / "exact.json").string();
  EXPECT_EQ(write_trace("E0/golden", exact), exact);
  EXPECT_NE(read_file(exact).find("\"traceEvents\""), std::string::npos);

  trace_instant("tick");
  const std::string in_dir = write_trace("E0/golden", dir.string());
  EXPECT_EQ(fs::path(in_dir).filename().string(), trace_filename("E0/golden"));
  EXPECT_EQ(fs::path(in_dir).parent_path(), dir);
  EXPECT_NE(read_file(in_dir).find("\"traceEvents\""), std::string::npos);

  fs::remove_all(dir);
}

// An empty path is "no sink": nothing is written and nothing is drained.
TEST(Trace, WriteTraceWithoutSinkIsANoop) {
  const TraceSandbox sandbox(true);
  trace_instant("tick");
  EXPECT_EQ(write_trace("E0/golden", ""), "");
  EXPECT_EQ(drain_events(EventKind::kTrace).size(), 1u);
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, CounterAccumulatesAndResets) {
  Counter& c = Metrics::global().counter("test.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, EmptyHistogramHasZeroMean) {
  const Histogram h(0, 10, 5);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  HistogramSnapshot snap;
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(Metrics, SingleValueLandsInItsBucket) {
  Histogram h(0, 10, 5);  // buckets of width 2
  h.record(5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 5u);
  EXPECT_EQ(h.bucket(2), 1u);  // [4, 6)
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Metrics, BoundaryValuesUnderflowAndOverflow) {
  Histogram h(10, 20, 5);
  h.record(9);    // < lo: underflow
  h.record(10);   // first bucket
  h.record(19);   // last bucket
  h.record(20);   // >= hi: overflow
  h.record(100);  // far overflow
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.count(), 5u);  // tails count too: nothing silently discarded
  EXPECT_EQ(h.sum(), 9u + 10u + 19u + 20u + 100u);
}

TEST(Metrics, DegenerateLayoutsThrow) {
  EXPECT_THROW(Histogram(10, 10, 5), UsageError);  // empty range
  EXPECT_THROW(Histogram(20, 10, 5), UsageError);  // inverted range
  EXPECT_THROW(Histogram(0, 10, 0), UsageError);   // no buckets
}

TEST(Metrics, ReregisteringWithDifferentLayoutThrows) {
  Histogram& h = Metrics::global().histogram("test.layout", 0, 100, 10);
  EXPECT_EQ(&Metrics::global().histogram("test.layout", 0, 100, 10), &h);
  EXPECT_THROW((void)Metrics::global().histogram("test.layout", 0, 200, 10), UsageError);
  EXPECT_THROW((void)Metrics::global().histogram("test.layout", 0, 100, 20), UsageError);
}

TEST(Metrics, ResetKeepsRegistrationsAndReferences) {
  Counter& c = Metrics::global().counter("test.reset");
  Histogram& h = Metrics::global().histogram("test.reset_hist", 0, 10, 5);
  c.add(7);
  h.record(3);
  Metrics::global().reset();
  EXPECT_EQ(c.value(), 0u);  // same reference, zeroed value
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(1), 0u);
  c.add(1);
  EXPECT_EQ(Metrics::global().counter("test.reset").value(), 1u);
}

TEST(Metrics, SnapshotIsSortedByName) {
  Metrics::global().counter("test.zz").add(1);
  Metrics::global().counter("test.aa").add(1);
  const MetricsSnapshot snap = Metrics::global().snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
}

// The no-drift guarantee for metrics: the [metrics] lines and the JSON
// "metrics" object render from the same snapshot.
TEST(Metrics, DescribeAndJsonRenderFromSameSnapshot) {
  MetricsSnapshot snap;
  snap.counters.push_back({"exec.executions", 32});
  HistogramSnapshot h;
  h.name = "exec.rounds_per_execution";
  h.lo = 0;
  h.hi = 8;
  h.buckets = {0, 0, 0, 32, 0, 0, 0, 0};
  h.count = 32;
  h.sum = 96;
  snap.histograms.push_back(h);

  const std::string text = core::describe(snap);
  EXPECT_NE(text.find("exec.executions=32"), std::string::npos) << text;
  EXPECT_NE(text.find("exec.rounds_per_execution: count=32 mean=3.0"), std::string::npos)
      << text;
  EXPECT_NE(text.find("range=[0,8)"), std::string::npos) << text;

  Json json;
  append(json, snap);
  const std::string doc = json.str();
  EXPECT_NE(doc.find("\"exec.executions\": 32"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"count\": 32"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"sum\": 96"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"lo\": 0"), std::string::npos) << doc;
}

}  // namespace
}  // namespace simulcast::obs
