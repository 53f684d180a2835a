#include "core/report.h"

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "base/error.h"
#include "net/transport.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "obs/trace.h"

namespace simulcast::core {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw UsageError("Table: empty header");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) throw UsageError("Table: row width != header width");
  rows_.push_back(std::move(row));
}

std::string Table::render() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  const auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << (c == 0 ? "| " : " | ") << std::left << std::setw(static_cast<int>(width[c]))
         << cells[c];
    }
    os << " |\n";
  };
  line(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) os << std::string(width[c] + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) line(row);
  return os.str();
}

std::string fmt(double value, int precision) {
  return obs::fmt(value, precision);
}

std::string verdict_str(bool pass) {
  return pass ? "PASS" : "FAIL";
}

std::string describe(const obs::VerdictRecord& v) {
  // The Sb notion speaks of simulatability; the other three of
  // independence.  "check" rows are bare pass/fail statements.
  std::ostringstream os;
  if (v.kind == "check") {
    os << verdict_str(v.pass) << ": " << v.detail;
    return os.str();
  }
  const char* ok_word = v.kind == "Sb" ? "simulatable" : "independent";
  os << v.kind << " " << (v.pass ? ok_word : "VIOLATED") << ": " << v.detail;
  return os.str();
}

std::string describe(const testers::CrVerdict& v) {
  return describe(obs::record(v));
}

std::string describe(const testers::GVerdict& v) {
  return describe(obs::record(v));
}

std::string describe(const testers::GssVerdict& v) {
  return describe(obs::record(v));
}

std::string describe(const testers::SbVerdict& v) {
  return describe(obs::record(v));
}

std::string describe(const exec::BatchReport& r) {
  std::ostringstream os;
  os << "[exec] executions=" << r.executions << " threads=" << r.threads << " wall="
     << fmt(r.wall_seconds, 3) << "s throughput=" << fmt(r.throughput, 1)
     << " exec/s rounds=" << r.total_rounds << " messages=" << r.traffic.messages
     << " wire=" << r.traffic.wire_bytes
     << "B phases[sample="
     << fmt(r.phases.sampling, 3) << "s exec=" << fmt(r.phases.execution, 3)
     << "s eval=" << fmt(r.phases.evaluation, 3) << "s]";
  // Only faulty runs print the fault tail, keeping fault-free output
  // byte-identical to the pre-fault-layer format.
  if (r.traffic.dropped > 0 || r.traffic.delayed > 0 || r.traffic.blocked > 0 ||
      r.traffic.crashed > 0) {
    os << " faults[dropped=" << r.traffic.dropped << " delayed=" << r.traffic.delayed
       << " blocked=" << r.traffic.blocked << " crashed=" << r.traffic.crashed << "]";
  }
  // Likewise the resilience tail appears only when something noteworthy
  // happened: an interrupted campaign or quarantined repetitions.
  if (r.partial || !r.quarantine.empty()) {
    os << " resilience[completed=" << r.completed << "/" << r.executions
       << " quarantined=" << r.quarantine.size() << (r.partial ? " PARTIAL" : "") << "]";
  }
  return os.str();
}

std::string describe(const obs::MetricsSnapshot& m) {
  std::ostringstream os;
  bool first_line = true;
  const auto newline = [&] {
    if (!first_line) os << "\n";
    first_line = false;
  };
  if (!m.counters.empty()) {
    newline();
    os << "[metrics]";
    for (const obs::CounterSnapshot& c : m.counters) os << " " << c.name << "=" << c.value;
  }
  for (const obs::HistogramSnapshot& h : m.histograms) {
    newline();
    os << "[metrics] " << h.name << ": count=" << h.count << " mean=" << fmt(h.mean(), 1);
    // Percentiles are undefined (NaN) for an empty histogram; printing
    // them would be noise, so the tail appears only with data.
    if (h.count > 0) {
      os << " p50=" << fmt(h.percentile(0.50), 1) << " p95=" << fmt(h.percentile(0.95), 1)
         << " p99=" << fmt(h.percentile(0.99), 1);
    }
  }
  return os.str();
}

namespace {

bool met(const obs::ExperimentCell& c) {
  return c.expected == obs::Expect::info || c.verdict.pass == (c.expected == obs::Expect::pass);
}

}  // namespace

bool reproduced(const obs::ExperimentRecord& record) {
  return !record.partial && std::all_of(record.cells.begin(), record.cells.end(), met);
}

Experiment::Experiment(std::string id, std::string paper_claim, std::string setup,
                       std::uint64_t seed) {
  record_.id = std::move(id);
  record_.paper_claim = std::move(paper_claim);
  record_.setup = std::move(setup);
  record_.seed = seed;
  std::cout << "\n=== " << record_.id << " ===\n"
            << "paper claim : " << record_.paper_claim << "\n"
            << "setup       : " << record_.setup << "\n\n";
}

void Experiment::cell(std::string label, obs::VerdictRecord verdict, obs::Expect expected) {
  record_.cells.push_back({std::move(label), std::move(verdict), expected});
}

int Experiment::finish(const std::string& summary) {
  obs::trace_instant("finish_experiment");
  const exec::RunConfig config = exec::run_config();
  const exec::Ledger ledger = exec::ledger();
  record_.perf = ledger.report;
  record_.metrics = obs::Metrics::global().snapshot();
  // Records state the conditions they were measured under.
  record_.faults = config.faults;
  record_.transport = std::string(net::transport_kind_name(config.transport));
  record_.chaos = config.chaos.summary();
  // Campaign correlation ids (schema v7): every batch that ran in this
  // process, in launch order — the join key between this record and its
  // trace/log/status artifacts.
  for (const std::uint64_t id : ledger.campaigns)
    record_.campaigns.push_back(obs::correlation_hex(id));
  // A graceful stop (SIGINT/SIGTERM or --stop-after) flushes the record in
  // whatever state the drain left it; the testers then judged drained,
  // zero-filled slots, so a partial record never reproduces.
  record_.partial = record_.perf.partial || exec::shutdown_requested();
  record_.reproduced = reproduced(record_);

  std::size_t deciding = 0;
  std::size_t missed = 0;
  std::string unmet;
  for (const obs::ExperimentCell& c : record_.cells) {
    deciding += c.expected != obs::Expect::info;
    if (!met(c)) unmet += (missed++ > 0 ? ", " : "") + c.label;
  }
  std::ostringstream detail;
  detail << deciding - missed << "/" << deciding << " cells as the paper expects";
  if (deciding < record_.cells.size()) detail << ", " << record_.cells.size() - deciding << " info";
  if (record_.partial)
    detail << "; partial: " << record_.perf.completed << " of " << record_.perf.executions
           << " executions ran";
  else if (!unmet.empty())
    detail << "; unmet: " << unmet;
  else
    detail << "; " << summary;
  record_.detail = detail.str();

  if (record_.perf.executions > 0) std::cout << describe(record_.perf) << "\n";
  if (!record_.metrics.empty()) std::cout << describe(record_.metrics) << "\n";
  if (record_.perf.executions > 0 || !record_.metrics.empty()) std::cout << "\n";
  std::cout << "[" << record_.id << "] " << (record_.reproduced ? "REPRODUCED" : "NOT-REPRODUCED")
            << " - " << record_.detail << "\n";
  for (const std::string& written :
       {obs::write_record(record_, config.json_path),
        obs::write_trace(record_.id, config.trace_path), obs::flush_log(config.log_path),
        obs::flush_status(config.status_path)})
    if (!written.empty()) std::cout << "[obs] wrote " << written << "\n";
  return record_.reproduced ? 0 : 1;
}

}  // namespace simulcast::core
