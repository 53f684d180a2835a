// simbench — one benchmark run of one workload.
//
//   simbench --workload NAME --seed N --seconds S --trace 0|1
//   simbench --workload NAME --seed N --setup-only
//
// Set-up (protocols, ensembles, the Schnorr group's fixed-base tables) is
// timed from main() to the first batch.  The run then repeats the
// workload's campaign, all passes with the same seed, until S seconds have
// passed.  Every pass must reproduce the first pass's per-cell digests and
// exact counts, and every verdict must match the paper.  Workloads whose
// pool width or transport differ from serial in-process also run one
// untimed serial in-process reference pass, which the timed passes must
// match.
//
// With --trace 0 the last line is a JSON object with the end-to-end
// metrics; with --trace 1 the passes alternate untraced and traced and the
// per-layer probes follow (harness.h).  The line also carries the
// correctness verdict, the exact-count block and the per-cell digests.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "base/error.h"
#include "crypto/group.h"
#include "core/registry.h"
#include "harness.h"

namespace {

using namespace perfbench;
using namespace simulcast;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& detail) {
  std::cerr << "error: " << detail
            << "\nusage: simbench --workload NAME --seed N (--seconds S --trace 0|1 | "
               "--setup-only)\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
      if (!have_seed) usage("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && a.seconds > 0 && a.seconds <= 120;
      if (!have_seconds) usage("--seconds must be in (0, 120]");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!a.setup_only && !(have_seconds && have_trace))
    usage("--seconds and --trace are required");
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// This process image's resident-set high-water mark.  VmHWM, not
/// getrusage: ru_maxrss survives exec and would report a larger parent's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw Error("peak RSS: no VmHWM line in /proc/self/status");
}

/// Warm re-runs of the set-up's two parts, one span each.
void trace_setup(const Workload& w, Tracer& tracer) {
  const crypto::SchnorrGroup& standard = crypto::SchnorrGroup::standard();
  const std::uint32_t group_span = tracer.intern("core.setup.group");
  const std::uint32_t protocol_span = tracer.intern("core.setup.make_protocol");
  for (int rep = 0; rep < 21; ++rep) {
    {
      const ScopedSpan span(tracer, group_span);
      const crypto::SchnorrGroup group(standard.p(), standard.q(), standard.g());
      if (group.h() != standard.h()) throw Error("set-up probe: group differs from standard()");
    }
    for (const std::string& name : w.traced_protocols) {
      const ScopedSpan span(tracer, protocol_span);
      (void)core::make_protocol(name);
    }
  }
}

struct Report {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap metrics;
  std::map<std::string, double> detail;  // sample counts behind the metrics
  std::vector<PassResult> passes;  // the timed passes (traced run: all passes)
  std::vector<double> pass_rates;  // exec/s of each timed pass
};

void absorb(Report& r, PassResult& pass) {
  r.attempted += pass.attempted;
  r.failed += pass.failed;
  for (std::string& e : pass.errors) r.errors.push_back(std::move(e));
  pass.errors.clear();
}

/// A serial in-process pass the timed passes must reproduce, for workloads
/// run at another width or over another transport.
void reference_pass(const Workload& w, Report& r, const PassResult& first) {
  if (w.threads == 1 && w.transport == net::TransportKind::kInProcess) return;
  Tracer off(false);
  PassResult ref = run_pass(w, Shape{}, off, false);
  // net.frames counts what a backend moved, which is backend-specific;
  // everything else must agree exactly.
  ref.counts.net_frames = first.counts.net_frames;
  compare_passes(ref, first, "serial in-process reference vs " + w.name, r.errors);
  absorb(r, ref);
}

void add(MetricMap& m, const std::string& name, double value, const std::string& unit) {
  m[name] = Metric{value, unit};
}

void end_to_end(const Workload& w, const Args& a, double setup_s, Report& r) {
  Tracer off(false);
  const Clock::time_point start = Clock::now();
  do {
    r.passes.push_back(run_pass(w, shape_of(w), off, false));
  } while (seconds_between(start, Clock::now()) < a.seconds);
  std::vector<double> rates, campaigns;
  for (std::size_t i = 0; i < r.passes.size(); ++i) {
    if (i > 0) compare_passes(r.passes[0], r.passes[i], "pass " + std::to_string(i), r.errors);
    rates.push_back(static_cast<double>(r.passes[i].counts.executions) / r.passes[i].execution_s);
    campaigns.push_back(r.passes[i].campaign_s);
  }
  reference_pass(w, r, r.passes[0]);
  add(r.metrics, "exec_per_s", median(rates), "1/s");
  add(r.metrics, "campaign_s", median(campaigns), "s");
  add(r.metrics, "setup_s", setup_s, "s");
  add(r.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
  r.pass_rates = rates;
}

void per_layer(const Workload& w, const Args& a, Report& r) {
  Tracer tracer(true), off(false);
  trace_setup(w, tracer);
  // Alternate untraced and traced passes over the first ~40% of the run;
  // their difference is the tracing overhead.
  std::vector<double> untraced, traced;
  const Clock::time_point start = Clock::now();
  while (untraced.empty() || traced.empty() ||
         seconds_between(start, Clock::now()) < 0.4 * a.seconds) {
    const bool on = untraced.size() > traced.size();
    r.passes.push_back(run_pass(w, shape_of(w), on ? tracer : off, on));
    (on ? traced : untraced).push_back(r.passes.back().campaign_s);
  }
  for (std::size_t i = 1; i < r.passes.size(); ++i)
    compare_passes(r.passes[0], r.passes[i], "pass " + std::to_string(i), r.errors);
  reference_pass(w, r, r.passes[0]);

  double traced_wall = 0.0;
  for (const double t : traced) traced_wall += t;
  double spanned = 0.0;
  for (const char* top : {"exec.run_batch", "testers.test_cr", "testers.test_g", "harness.gate"})
    spanned += tracer.total_ns(top) / 1e9;
  MetricMap& m = r.metrics;
  add(m, "obs.tracing_overhead_share", median(traced) / median(untraced) - 1.0, "share");
  add(m, "unattributed_share", 1.0 - spanned / traced_wall, "share");

  const PassResult* last_traced = nullptr;
  for (const PassResult& p : r.passes)
    if (!p.samples.empty()) last_traced = &p;
  const Counts& c = r.passes[0].counts;
  const auto per_exec = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(c.executions);
  };
  add(m, "sim.rounds_per_exec", per_exec(c.rounds), "count");
  add(m, "sim.messages_per_exec", per_exec(c.messages), "count");
  add(m, "sim.wire_bytes_per_exec", per_exec(c.wire_bytes), "B");
  add(m, "net.frames_per_exec", per_exec(c.net_frames), "count");
  add(m, "sim.payload_reuse_ratio",
      static_cast<double>(c.payload_reused) / static_cast<double>(c.payload_acquired), "share");

  run_probes(ProbeContext{w, *last_traced, a.seed, 0.6 * a.seconds, tracer}, m, r.errors);

  for (const std::string& p : w.traced_protocols) {
    const std::vector<double> ns = tracer.durations_ns("sim.run_execution/" + p);
    add(m, "sim.exec_us." + p + ".p50", quantile(ns, 0.50) / 1e3, "us");
    add(m, "sim.exec_us." + p + ".p99", quantile(ns, 0.99) / 1e3, "us");
    r.detail["sim.exec_us." + p + ".samples"] = static_cast<double>(ns.size());
  }
  r.detail["testers.cr.calls"] = static_cast<double>(tracer.durations_ns("testers.test_cr").size());
  r.detail["testers.g.calls"] = static_cast<double>(tracer.durations_ns("testers.test_g").size());
  r.detail["spans"] = static_cast<double>(tracer.size());
  add(m, "testers.cr_ms", median(tracer.durations_ns("testers.test_cr")) / 1e6, "ms");
  add(m, "testers.g_ms", median(tracer.durations_ns("testers.test_g")) / 1e6, "ms");
  add(m, "core.setup.group_ms", median(tracer.durations_ns("core.setup.group")) / 1e6, "ms");
  add(m, "core.setup.make_protocol_us",
      median(tracer.durations_ns("core.setup.make_protocol")) / 1e3, "us");
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  const Args args = parse(argc, argv);
  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(args.workload, args.seed);
  } catch (const UsageError& e) {
    usage(e.what());
  }
  // The fixed-base tables of the standard group are built on first use;
  // build them here so they count as set-up, not as the first batch.
  (void)crypto::SchnorrGroup::standard();
  const double setup_s = seconds_between(process_start, Clock::now());
  if (args.setup_only) {
    std::cout << "{\"setup_s\": " << json_number(setup_s) << "}" << std::endl;
    return 0;
  }

  Report report;
  try {
    if (args.trace)
      per_layer(*workload, args, report);
    else
      end_to_end(*workload, args, setup_s, report);
  } catch (const std::exception& e) {
    report.errors.push_back(std::string("run aborted: ") + e.what());
  }
  for (PassResult& p : report.passes) absorb(report, p);

  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload->name) << ", \"seed\": " << args.seed
     << ", \"trace\": " << (args.trace ? 1 : 0) << ", \"passes\": " << report.passes.size()
     << ", \"correct\": " << (report.errors.empty() ? "true" : "false")
     << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
     << ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size() && i < 20; ++i)
    os << (i ? ", " : "") << json_string(report.errors[i]);
  os << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    os << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << json_number(metric.value)
       << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  os << "}, \"detail\": {";
  first = true;
  for (const auto& [name, value] : report.detail) {
    os << (first ? "" : ", ") << json_string(name) << ": " << json_number(value);
    first = false;
  }
  os << "}, \"pass_exec_per_s\": [";
  for (std::size_t i = 0; i < report.pass_rates.size(); ++i)
    os << (i ? ", " : "") << json_number(report.pass_rates[i]);
  os << "]";
  if (!report.passes.empty()) {
    const Counts& c = report.passes[0].counts;
    os << ", \"counts\": {\"executions\": " << c.executions << ", \"rounds\": " << c.rounds
       << ", \"messages\": " << c.messages << ", \"wire_bytes\": " << c.wire_bytes
       << ", \"net_frames\": " << c.net_frames << ", \"payload_acquired\": " << c.payload_acquired
       << ", \"payload_reused\": " << c.payload_reused << "}, \"cells\": [";
    for (std::size_t i = 0; i < report.passes[0].cells.size(); ++i) {
      const CellOutcome& o = report.passes[0].cells[i];
      char digest[17];
      std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(o.digest));
      os << (i ? ", " : "") << "{\"name\": " << json_string(workload->cells[i].name)
         << ", \"digest\": \"" << digest << "\", \"cr_gap\": " << json_number(o.cr_gap) << "}";
    }
    os << "]";
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}
