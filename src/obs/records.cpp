#include "obs/records.h"

#include <iomanip>
#include <sstream>

namespace simulcast::obs {

namespace {

#ifdef NDEBUG
constexpr const char* kBuildMode = "release";
#else
constexpr const char* kBuildMode = "debug";
#endif

#ifdef __VERSION__
constexpr const char* kCompiler = __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

constexpr const char* kExpectNames[] = {"pass", "violation", "info"};  // by Expect

}  // namespace

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

VerdictRecord record(const testers::CrVerdict& v) {
  VerdictRecord out;
  out.kind = "CR";
  out.pass = v.independent;
  out.gap = v.max_gap;
  out.radius = v.radius;
  std::ostringstream os;
  os << "max gap " << fmt(v.max_gap) << " (radius " << fmt(v.radius) << ") at P"
     << v.worst.party << " with R=[" << v.worst.predicate << "], Pr[Wi=0]="
     << fmt(v.worst.p_wi_zero) << " Pr[R]=" << fmt(v.worst.p_predicate)
     << " Pr[Wi=0,R]=" << fmt(v.worst.p_joint);
  out.detail = os.str();
  return out;
}

VerdictRecord record(const testers::GVerdict& v) {
  VerdictRecord out;
  out.kind = "G";
  out.pass = v.independent;
  out.gap = v.max_excess;
  out.radius = v.independent ? 0.0 : v.worst.radius;
  std::ostringstream os;
  os << "max excess " << fmt(v.max_excess) << " over " << v.pairs_tested << " conditionings";
  if (!v.independent) {
    os << "; worst at P" << v.worst.party << " between honest vectors "
       << v.worst.r.to_string() << " and " << v.worst.s.to_string() << " (gap "
       << fmt(v.worst.gap) << ", radius " << fmt(v.worst.radius) << ")";
  }
  out.detail = os.str();
  return out;
}

VerdictRecord record(const testers::GssVerdict& v) {
  VerdictRecord out;
  out.kind = "G**";
  out.pass = v.independent;
  out.gap = v.max_gap;
  out.radius = v.radius;
  std::ostringstream os;
  os << "max gap " << fmt(v.max_gap) << " (radius " << fmt(v.radius) << ") over "
     << v.executions << " executions";
  if (!v.independent) {
    os << "; worst at P" << v.worst.party << " with w=" << v.worst.w.to_string()
       << " between r=" << v.worst.r.to_string() << " and s=" << v.worst.s.to_string();
  }
  out.detail = os.str();
  return out;
}

VerdictRecord record(const testers::SbVerdict& v) {
  VerdictRecord out;
  out.kind = "Sb";
  out.pass = v.secure;
  out.gap = v.max_distinguisher_gap;
  out.radius = v.radius;
  std::ostringstream os;
  os << "max distinguisher gap " << fmt(v.max_distinguisher_gap) << " (radius "
     << fmt(v.radius) << "), joint TV " << fmt(v.tv_joint);
  if (!v.secure)
    os << "; worst distinguisher [" << v.worst.distinguisher << "] real=" << fmt(v.worst.p_real)
       << " ideal=" << fmt(v.worst.p_ideal);
  out.detail = os.str();
  return out;
}

VerdictRecord check(bool pass, std::string detail) {
  VerdictRecord out;
  out.kind = "check";
  out.pass = pass;
  out.detail = std::move(detail);
  return out;
}

void append(Json& json, const VerdictRecord& v) {
  json.object_begin()
      .member("kind", v.kind)
      .member("pass", v.pass)
      .member("gap", v.gap)
      .member("radius", v.radius)
      .member("detail", v.detail)
      .object_end();
}

void append(Json& json, const exec::BatchReport& r) {
  json.object_begin()
      .member("executions", std::uint64_t{r.executions})
      .member("threads", std::uint64_t{r.threads})
      .member("wall_seconds", r.wall_seconds)
      .member("throughput", r.throughput)
      .member("total_rounds", std::uint64_t{r.total_rounds})
      .member("completed", std::uint64_t{r.completed})
      .member("partial", r.partial);
  json.key("quarantine").array_begin();
  for (const exec::QuarantineRecord& q : r.quarantine) {
    json.object_begin()
        .member("rep", std::uint64_t{q.rep})
        .member("seed", q.seed)
        .member("reason", q.reason)
        .object_end();
  }
  json.array_end();
  json.key("traffic").object_begin();
  for (const auto& [column, name] : sim::kTrafficColumns)
    json.member(name, std::uint64_t{r.traffic.*column});
  json.object_end();
  json.key("phases")
      .object_begin()
      .member("sampling_seconds", r.phases.sampling)
      .member("execution_seconds", r.phases.execution)
      .member("evaluation_seconds", r.phases.evaluation)
      .object_end();
  json.object_end();
}

void append(Json& json, const MetricsSnapshot& m) {
  json.object_begin();
  json.key("counters").object_begin();
  for (const CounterSnapshot& c : m.counters) json.member(c.name, c.value);
  json.object_end();
  json.key("histograms").object_begin();
  for (const HistogramSnapshot& h : m.histograms) {
    json.key(h.name)
        .object_begin()
        .member("count", h.count)
        .member("sum", h.sum)
        .member("p50", h.percentile(0.50))
        .member("p95", h.percentile(0.95))
        .member("p99", h.percentile(0.99));
    json.key("buckets").array_begin();
    for (const HistogramBucket& b : h.buckets)
      json.array_begin().value(b.first).value(b.last).value(b.count).array_end();
    json.array_end().object_end();
  }
  json.object_end();
  json.object_end();
}

void append(Json& json, const ExperimentRecord& r) {
  json.object_begin()
      .member("schema_version", kSchemaVersion)
      .member("id", r.id)
      .member("paper_claim", r.paper_claim)
      .member("setup", r.setup)
      .member("reproduced", r.reproduced)
      .member("partial", r.partial)
      .member("detail", r.detail);
  json.key("metadata")
      .object_begin()
      .member("seed", r.seed)
      .member("threads", std::uint64_t{r.perf.threads})
      .member("transport", r.transport)
      .member("chaos", r.chaos)
      .member("compiler", kCompiler)
      .member("build", kBuildMode);
  json.key("campaigns").array_begin();
  for (const std::string& campaign : r.campaigns) json.value(campaign);
  json.array_end().object_end();
  json.key("faults")
      .object_begin()
      .member("drop_probability", r.faults.drop_probability)
      .member("max_delay", std::uint64_t{r.faults.max_delay});
  json.key("crashes").array_begin();
  for (const sim::CrashFault& c : r.faults.crashes) {
    json.object_begin()
        .member("party", std::uint64_t{c.party})
        .member("round", std::uint64_t{c.round})
        .object_end();
  }
  json.array_end();
  json.key("partitions").array_begin();
  for (const sim::Partition& p : r.faults.partitions) {
    json.object_begin().key("side").array_begin();
    for (const sim::PartyId id : p.side) json.value(std::uint64_t{id});
    json.array_end()
        .member("from", std::uint64_t{p.from})
        .member("until", std::uint64_t{p.until})
        .object_end();
  }
  json.array_end();
  json.object_end();
  json.key("cells").array_begin();
  for (const ExperimentCell& cell : r.cells) {
    json.object_begin()
        .member("label", cell.label)
        .member("expected", kExpectNames[static_cast<int>(cell.expected)])
        .key("verdict");
    append(json, cell.verdict);
    json.object_end();
  }
  json.array_end();
  json.key("perf");
  append(json, r.perf);
  json.key("metrics");
  append(json, r.metrics);
  json.object_end();
}

std::string to_json(const ExperimentRecord& r) {
  Json json;
  append(json, r);
  return json.str() + "\n";
}

}  // namespace simulcast::obs
