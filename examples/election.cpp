// A yes/no referendum over simultaneous broadcast: the electronic-voting
// motivation from the paper's introduction.
//
// Seven voters announce a yes (1) / no (0) vote; majority wins.  A lobbyist
// controls one voter and wants the measure to FAIL, so the ideal strategy
// is to watch the honest votes and vote "no" only when the race is close
// (or better: always equal the negation needed).  Two scenarios:
//
//   - naive-commit-reveal + selective abort: the corrupted voter commits to
//     "yes" and reveals only when honest voter 0 voted "yes" - correlating
//     its announced vote with an honest one, which can flip close races
//     relative to its committed intent;
//   - gennaro: the vote is locked at commit time and recoverable; the only
//     deviation left is abstaining (announced 0 = "no") *unconditionally*,
//     i.e. without seeing anything - which is an honest-world strategy, not
//     an attack.
//
// The example counts how often the corrupted coordinate correlates with
// honest voter 0's announced vote in each scenario.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "core/report.h"
#include "core/session.h"
#include "crypto/commitment.h"
#include "exec/runner.h"
#include "stats/rng.h"

namespace {

using namespace simulcast;
constexpr std::size_t kVoters = 7;
constexpr std::size_t kElections = 1500;

struct Tally {
  double match_rate = 0.0;  ///< Pr[corrupted announced == honest P0 announced]
  double yes_rate = 0.0;    ///< Pr[measure passes]
};

Tally run_elections(const std::string& protocol, const adversary::AdversaryFactory& factory,
                    std::uint64_t seed) {
  core::Session session(protocol, kVoters);
  stats::Rng rng(seed);
  // Votes and per-election seeds are drawn exactly as the serial loop drew
  // them (fork never advances rng), then the 1500 elections ride the exec
  // engine as one batch — set SIMULCAST_THREADS to shard them.
  std::vector<BitVec> votes(kElections, BitVec(kVoters));
  std::vector<std::uint64_t> seeds(kElections);
  for (std::size_t e = 0; e < kElections; ++e) {
    for (std::size_t v = 0; v < kVoters; ++v) votes[e].set(v, rng.bernoulli(0.5));
    seeds[e] = rng.fork("e", e)();
  }
  const core::SessionBatch batch = session.run_batch_seeded(votes, seeds, {6}, factory);

  std::size_t matches = 0;
  std::size_t passes = 0;
  for (const core::SessionResult& result : batch.results) {
    if (result.announced.get(6) == result.announced.get(0)) ++matches;
    if (static_cast<std::size_t>(result.announced.popcount()) * 2 > kVoters) ++passes;
  }
  return {static_cast<double>(matches) / kElections, static_cast<double>(passes) / kElections};
}

}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  static const crypto::HashCommitmentScheme scheme;
  std::cout << std::fixed << std::setprecision(3) << "referendum with " << kVoters
            << " voters, voter 6 corrupted, " << kElections << " elections per row\n\n";

  const Tally naive = run_elections(
      "naive-commit-reveal", adversary::selective_abort_factory(0, scheme), 11);
  std::cout << "naive-commit-reveal + selective abort:\n"
            << "  corrupted vote matches honest voter 0: " << naive.match_rate
            << "  (1.000 = perfectly correlated)\n"
            << "  measure passes: " << naive.yes_rate << "\n\n";

  const Tally fair = run_elections("gennaro", adversary::silent_factory(), 12);
  std::cout << "gennaro + the strongest remaining deviation (unconditional abstain):\n"
            << "  corrupted vote matches honest voter 0: " << fair.match_rate
            << "  (0.5 = independent)\n"
            << "  measure passes: " << fair.yes_rate << "\n\n";

  std::cout << "Selective abort is why commit-then-reveal without recoverability is\n"
               "not a simultaneous broadcast; the VSS-based protocols fix the vote at\n"
               "commit time (tests/protocols/vss_protocols_test.cpp,\n"
               "RevealWithholdingCannotChangeAnnouncedValue).\n\n";

  const bool naive_correlated = naive.match_rate > 0.95;
  const bool fair_independent = std::abs(fair.match_rate - 0.5) < 0.06;

  obs::ExperimentRecord rec;
  rec.id = "example/election";
  rec.paper_claim = "selective abort correlates the corrupted vote; recoverable "
                    "commitments leave only input-independent abstention";
  rec.setup = "referendum, 7 voters, voter 6 corrupted, 1500 elections per scenario";
  rec.seed = 11;
  rec.cells.push_back(
      {"naive-commit-reveal correlated",
       obs::check(naive_correlated,
                  "match rate " + core::fmt(naive.match_rate, 3) + " > 0.95")});
  rec.cells.push_back(
      {"gennaro independent",
       obs::check(fair_independent,
                  "|match rate " + core::fmt(fair.match_rate, 3) + " - 0.5| < 0.06")});
  rec.reproduced = naive_correlated && fair_independent;
  rec.detail = "naive match " + core::fmt(naive.match_rate, 3) + ", gennaro match " +
               core::fmt(fair.match_rate, 3);
  return core::finish_experiment(rec);
}
