#include "net/chaos.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/parse.h"
#include "obs/metrics.h"

namespace simulcast::net {

namespace {

/// 53-bit uniform scale: draws map to doubles in [0, 1) exactly, and a
/// probability threshold of 0 or 1 behaves exactly at the endpoints (the
/// FaultPlan drop draw uses the same construction).
constexpr std::uint64_t kScale = std::uint64_t{1} << 53;

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const std::size_t at = text.find(sep);
    parts.push_back(text.substr(0, at));
    if (at == std::string_view::npos) break;
    text.remove_prefix(at + 1);
  }
  return parts;
}

double parse_number(std::string_view text, const std::string& what) {
  const std::optional<double> value = parse_real(text);
  if (!value)
    throw UsageError("chaos: " + what + " must be a number, got '" + std::string(text) + "'");
  return *value;
}

std::size_t parse_count(std::string_view text, const std::string& what) {
  const std::optional<std::uint64_t> value = parse_uint(text);
  if (!value)
    throw UsageError("chaos: " + what + " must be a count >= 0, got '" + std::string(text) + "'");
  return *value;
}

double parse_probability(std::string_view text, const std::string& what) {
  const double p = parse_number(text, what);
  if (p < 0.0 || p > 1.0)
    throw UsageError("chaos: " + what + " must be a probability in [0, 1], got '" +
                     std::string(text) + "'");
  return p;
}

/// Trims trailing zeros off the %g-style rendering so summaries round-trip
/// through parse_number and print the way a user would have typed them.
std::string fmt_number(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

/// Every ChaosStats column with the net.chaos.* counter it feeds.
constexpr std::pair<std::size_t ChaosStats::*, const char*> kColumns[] = {
    {&ChaosStats::dropped, "net.chaos.dropped"},
    {&ChaosStats::duplicated, "net.chaos.duplicated"},
    {&ChaosStats::reordered, "net.chaos.reordered"},
    {&ChaosStats::delayed, "net.chaos.delayed"},
    {&ChaosStats::corrupted, "net.chaos.corrupted"},
    {&ChaosStats::corrupt_rejected, "net.chaos.corrupt_rejected"},
    {&ChaosStats::retransmits, "net.chaos.retransmits"},
    {&ChaosStats::budget_exhausted, "net.chaos.budget_exhausted"},
};

}  // namespace

std::string ChaosSpec::summary() const {
  if (!enabled()) return "";
  std::string out;
  const auto add = [&](const std::string& item) {
    if (!out.empty()) out += ',';
    out += item;
  };
  switch (delay) {
    case Delay::kFixed: add("delay:fixed:" + fmt_number(delay_a)); break;
    case Delay::kUniform: add("delay:uniform:" + fmt_number(delay_a) + ":" + fmt_number(delay_b)); break;
    case Delay::kPareto: add("delay:pareto:" + fmt_number(delay_a) + ":" + fmt_number(delay_b)); break;
    case Delay::kNone: break;
  }
  if (loss > 0.0) add("loss:" + fmt_number(loss));
  if (duplicate > 0.0) add("dup:" + fmt_number(duplicate));
  if (reorder > 0.0)
    add("reorder:" + fmt_number(reorder) + ":" + std::to_string(reorder_window));
  if (corrupt > 0.0) add("corrupt:" + fmt_number(corrupt));
  if (budget != kDefaultBudget) add("budget:" + std::to_string(budget));
  if (party != kAllParties) add("party:" + std::to_string(party));
  if (after != 0) add("after:" + std::to_string(after));
  return out;
}

void ChaosSpec::validate() const {
  const auto check_probability = [](double p, const char* what) {
    if (p < 0.0 || p > 1.0)
      throw UsageError(std::string("chaos: ") + what + " probability out of [0, 1]");
  };
  check_probability(loss, "loss");
  check_probability(duplicate, "dup");
  check_probability(reorder, "reorder");
  check_probability(corrupt, "corrupt");
  if (delay != Delay::kNone) {
    if (delay_a < 0.0 || delay_a > kMaxDelayMs)
      throw UsageError("chaos: delay must be in [0, " + fmt_number(kMaxDelayMs) + "] ms");
    if (delay == Delay::kUniform && (delay_b < delay_a || delay_b > kMaxDelayMs))
      throw UsageError("chaos: uniform delay bounds must satisfy lo <= hi <= " +
                       fmt_number(kMaxDelayMs));
    if (delay == Delay::kPareto && !(delay_b > 0.0))
      throw UsageError("chaos: pareto shape must be > 0");
  }
  if (reorder > 0.0 && reorder_window == 0)
    throw UsageError("chaos: reorder needs a window >= 1");
}

ChaosSpec parse_chaos_spec(std::string_view text) {
  ChaosSpec spec;
  if (text.empty()) return spec;
  for (const std::string_view item : split(text, ',')) {
    const std::vector<std::string_view> fields = split(item, ':');
    const std::string_view key = fields[0];
    const std::size_t args = fields.size() - 1;
    const auto want = [&](std::size_t count, const char* usage) {
      if (args != count)
        throw UsageError("chaos: '" + std::string(item) + "' — expected " + usage);
    };
    if (key == "delay") {
      if (args < 2) throw UsageError("chaos: delay needs a kind (fixed|uniform|pareto)");
      const std::string_view kind = fields[1];
      if (kind == "fixed") {
        want(2, "delay:fixed:MS");
        spec.delay = ChaosSpec::Delay::kFixed;
        spec.delay_a = parse_number(fields[2], "delay ms");
      } else if (kind == "uniform") {
        want(3, "delay:uniform:LO:HI");
        spec.delay = ChaosSpec::Delay::kUniform;
        spec.delay_a = parse_number(fields[2], "delay lo ms");
        spec.delay_b = parse_number(fields[3], "delay hi ms");
      } else if (kind == "pareto") {
        want(3, "delay:pareto:SCALE:SHAPE");
        spec.delay = ChaosSpec::Delay::kPareto;
        spec.delay_a = parse_number(fields[2], "delay scale ms");
        spec.delay_b = parse_number(fields[3], "delay shape");
      } else {
        throw UsageError("chaos: unknown delay kind '" + std::string(kind) +
                         "' (expected fixed|uniform|pareto)");
      }
    } else if (key == "loss") {
      want(1, "loss:P");
      spec.loss = parse_probability(fields[1], "loss");
    } else if (key == "dup") {
      want(1, "dup:P");
      spec.duplicate = parse_probability(fields[1], "dup");
    } else if (key == "reorder") {
      want(2, "reorder:P:WINDOW");
      spec.reorder = parse_probability(fields[1], "reorder");
      spec.reorder_window = parse_count(fields[2], "reorder window");
    } else if (key == "corrupt") {
      want(1, "corrupt:P");
      spec.corrupt = parse_probability(fields[1], "corrupt");
    } else if (key == "budget") {
      want(1, "budget:N");
      spec.budget = parse_count(fields[1], "budget");
    } else if (key == "party") {
      want(1, "party:ID");
      spec.party = parse_count(fields[1], "party");
    } else if (key == "after") {
      want(1, "after:K");
      spec.after = parse_count(fields[1], "after");
    } else {
      throw UsageError("chaos: unknown key '" + std::string(key) +
                       "' (expected delay|loss|dup|reorder|corrupt|budget|party|after)");
    }
  }
  // Shaping keys (budget/party/after) without a wire condition, or explicit
  // zero probabilities, leave the spec inert — reject the likely mistake.
  if (!spec.enabled())
    throw UsageError("chaos: spec '" + std::string(text) + "' sets no wire condition");
  spec.validate();
  return spec;
}

ChaosStats& ChaosStats::operator+=(const ChaosStats& other) noexcept {
  for (const auto& [column, name] : kColumns) this->*column += other.*column;
  return *this;
}

bool ChaosStats::any() const noexcept {
  return std::any_of(std::begin(kColumns), std::end(kColumns),
                     [this](const auto& c) { return this->*c.first != 0; });
}

void record_chaos_metrics(const ChaosStats& stats) {
  if (!stats.any()) return;
  for (const auto& [column, name] : kColumns)
    obs::Metrics::global().counter(name).add(stats.*column);
}

Chaos::Chaos(const ChaosSpec& spec, std::uint64_t seed, std::string_view channel)
    : spec_(spec), drbg_(seed, "wire-chaos:" + std::string(channel)) {
  spec_.validate();
}

double Chaos::uniform() {
  return static_cast<double>(drbg_.below(kScale)) / static_cast<double>(kScale);
}

Chaos::Verdict Chaos::next_verdict() {
  Verdict verdict;
  // Every dimension draws unconditionally so a frame's fate is a pure
  // function of (seed, spec, traffic prefix) — never of which earlier
  // verdicts were acted on or of wall-clock timing.
  const bool drop = spec_.loss > 0.0 && uniform() < spec_.loss;
  const bool duplicate = spec_.duplicate > 0.0 && uniform() < spec_.duplicate;
  const bool reorder = spec_.reorder > 0.0 && uniform() < spec_.reorder;
  const std::size_t hold =
      spec_.reorder_window > 0 ? 1 + drbg_.below(spec_.reorder_window) : 0;
  double delay_ms = 0.0;
  switch (spec_.delay) {
    case ChaosSpec::Delay::kFixed: delay_ms = spec_.delay_a; break;
    case ChaosSpec::Delay::kUniform:
      delay_ms = spec_.delay_a + uniform() * (spec_.delay_b - spec_.delay_a);
      break;
    case ChaosSpec::Delay::kPareto: {
      // Bounded Pareto: scale / u^(1/shape), capped at the validity bound
      // so a heavy tail cannot outlast a stall deadline.
      const double u = std::max(uniform(), 1.0 / static_cast<double>(kScale));
      delay_ms = spec_.delay_a * std::pow(u, -1.0 / spec_.delay_b);
      break;
    }
    case ChaosSpec::Delay::kNone: break;
  }
  const bool warmup = frame_index_++ < spec_.after;
  if (warmup) return verdict;  // draws consumed, fate clean
  verdict.drop = drop;
  verdict.duplicate = !drop && duplicate;
  if (!drop && reorder) verdict.hold = hold;
  if (!drop && delay_ms > 0.0) {
    delay_ms = std::min(delay_ms, ChaosSpec::kMaxDelayMs);
    verdict.delay = std::chrono::microseconds(static_cast<std::int64_t>(delay_ms * 1000.0));
  }
  verdict.corrupt = !drop && spec_.corrupt > 0.0;
  return verdict;
}

std::size_t Chaos::corrupt_bytes(std::uint8_t* data, std::size_t size) {
  if (spec_.corrupt <= 0.0 || size == 0) return 0;
  std::size_t flips = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (uniform() < spec_.corrupt) {
      data[i] ^= static_cast<std::uint8_t>(1u << drbg_.below(8));
      ++flips;
    }
  }
  return flips;
}

}  // namespace simulcast::net
