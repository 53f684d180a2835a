// Property-based seed-sweep harness for the fault-injection invariants.
//
// sweep() generates `count` FaultPlans from a master seed (schedule i is a
// pure function of (master_seed, i)), runs a caller-supplied check on each,
// and on the first failure greedily shrinks the plan to a minimal one that
// still fails before returning.  SweepFailure::describe() prints the full
// reproducer — master seed, schedule index, per-schedule execution seed,
// original and minimal plans — so a CI failure replays with one line:
//
//   auto failure = props::sweep(kMasterSeed, 200, n, rounds, bounds, check);
//   if (failure) ADD_FAILURE() << failure->describe();
//
// A check returns "" on pass and a one-line failure description otherwise;
// it must be a pure function of (plan, seed) or shrinking is meaningless.
// traffic_diff() is the shared one-liner for the traffic part of a check.
#pragma once

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/faults.h"
#include "sim/network.h"
#include "stats/rng.h"

namespace simulcast::props {

/// Bounds for random_plan.  `crash_only` restricts generation to crash
/// schedules (the regime where surviving-honest consistency is asserted);
/// the other fields cap each fault dimension.
struct PlanBounds {
  double max_drop = 0.25;
  std::size_t max_delay = 2;
  std::size_t max_crashes = 2;
  std::size_t max_partitions = 1;
  bool crash_only = false;
};

/// Draws one plan.  Magnitudes are quantized (drop probability in eighths
/// of the bound) so shrunk plans print cleanly in reproducers.
inline sim::FaultPlan random_plan(stats::Rng& rng, std::size_t n, std::size_t rounds,
                                  const PlanBounds& bounds) {
  sim::FaultPlan plan;
  if (!bounds.crash_only) {
    plan.drop_probability = bounds.max_drop * static_cast<double>(rng.below(9)) / 8.0;
    if (bounds.max_delay > 0) plan.max_delay = rng.below(bounds.max_delay + 1);
  }
  if (bounds.max_crashes > 0) {
    const std::size_t crashes = rng.below(bounds.max_crashes + 1);
    for (std::size_t i = 0; i < crashes; ++i)
      plan.crashes.push_back({rng.below(n), rng.below(rounds + 1)});
  }
  if (!bounds.crash_only && bounds.max_partitions > 0 && n >= 2) {
    const std::size_t partitions = rng.below(bounds.max_partitions + 1);
    for (std::size_t i = 0; i < partitions; ++i) {
      sim::Partition p;
      for (sim::PartyId id = 0; id < n; ++id)
        if (rng.bit()) p.side.push_back(id);
      p.from = rng.below(rounds + 1);
      p.until = p.from + 1 + rng.below(rounds + 1 - p.from);
      // An empty or all-party side cuts nothing; skip it (the draws above
      // are still consumed, keeping schedule i a pure function of i).
      if (p.side.empty() || p.side.size() == n) continue;
      plan.partitions.push_back(std::move(p));
    }
  }
  return plan;
}

/// A property check: "" = pass, anything else = one-line failure text.
using Check = std::function<std::string(const sim::FaultPlan&, std::uint64_t seed)>;

struct SweepFailure {
  std::uint64_t master_seed = 0;
  std::size_t index = 0;       ///< which schedule failed
  std::uint64_t seed = 0;      ///< the execution seed handed to the check
  sim::FaultPlan plan;         ///< the original failing plan
  sim::FaultPlan minimal;      ///< greedily shrunk plan that still fails
  std::string message;         ///< failure text of the minimal plan

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "property failed at schedule " << index
       << " (reproducer: master_seed=" << master_seed << " index=" << index
       << " exec_seed=" << seed << ")\n"
       << "  plan:    " << plan.summary() << "\n"
       << "  minimal: " << minimal.summary() << "\n"
       << "  failure: " << message;
    return os.str();
  }
};

/// Greedy shrink: repeatedly tries the single simplifications (zero the
/// drop rate, zero the delay, remove one crash, remove one partition) and
/// keeps any that still fails, until none does.  Terminates because every
/// accepted step strictly shrinks the plan.
inline sim::FaultPlan shrink(const sim::FaultPlan& failing, std::uint64_t seed,
                             const Check& check, std::string& message) {
  sim::FaultPlan best = failing;
  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<sim::FaultPlan> candidates;
    if (best.drop_probability > 0.0) {
      candidates.push_back(best);
      candidates.back().drop_probability = 0.0;
    }
    if (best.max_delay > 0) {
      candidates.push_back(best);
      candidates.back().max_delay = 0;
    }
    for (std::size_t i = 0; i < best.crashes.size(); ++i) {
      candidates.push_back(best);
      candidates.back().crashes.erase(candidates.back().crashes.begin() +
                                      static_cast<std::ptrdiff_t>(i));
    }
    for (std::size_t i = 0; i < best.partitions.size(); ++i) {
      candidates.push_back(best);
      candidates.back().partitions.erase(candidates.back().partitions.begin() +
                                         static_cast<std::ptrdiff_t>(i));
    }
    for (sim::FaultPlan& candidate : candidates) {
      std::string msg = check(candidate, seed);
      if (!msg.empty()) {
        best = std::move(candidate);
        message = std::move(msg);
        improved = true;
        break;
      }
    }
  }
  return best;
}

/// Runs `check` over `count` schedules; returns the first failure (with its
/// shrunk plan) or nullopt when every schedule passes.
inline std::optional<SweepFailure> sweep(std::uint64_t master_seed, std::size_t count,
                                         std::size_t n, std::size_t rounds,
                                         const PlanBounds& bounds, const Check& check) {
  const stats::Rng master(master_seed);
  for (std::size_t i = 0; i < count; ++i) {
    stats::Rng plan_rng = master.fork("plan", i);
    const sim::FaultPlan plan = random_plan(plan_rng, n, rounds, bounds);
    const std::uint64_t exec_seed = master.fork("exec", i)();
    std::string msg = check(plan, exec_seed);
    if (msg.empty()) continue;
    SweepFailure failure;
    failure.master_seed = master_seed;
    failure.index = i;
    failure.seed = exec_seed;
    failure.plan = plan;
    failure.message = std::move(msg);
    failure.minimal = shrink(plan, exec_seed, check, failure.message);
    return failure;
  }
  return std::nullopt;
}

/// "" when two executions' traffic agrees, else "traffic.<first diverging
/// counter> diverges" — the one-line form checks and reproducers print.
inline std::string traffic_diff(const sim::TrafficStats& a, const sim::TrafficStats& b) {
  for (const auto& [column, name] : sim::kTrafficColumns)
    if (a.*column != b.*column) return std::string("traffic.") + name + " diverges";
  return "";
}

}  // namespace simulcast::props
