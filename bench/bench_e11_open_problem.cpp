// E11 - Section 7's open problem, probed empirically.
//
// The paper closes with: "An interesting open problem is to find a constant
// round protocol (i.e., as efficient as the one of [12]) for simultaneous
// broadcast that achieves the stronger notion of CR-Independence [8] or
// even (and preferably) Sb-Independence [7]."
//
// Our Gennaro-style construction is a 4-round (constant) protocol, and in
// this harness it passes the CR tester AND the Sb tester against every
// adversary in the library, on a grid of achievable distributions.  That is
// NOT a resolution of the open problem - a Monte-Carlo tester over a finite
// adversary/distinguisher library proves nothing asymptotically - but it is
// the empirical statement that the candidate construction shows no
// separation at simulation scale, and it pins down exactly what a proof
// would need to rule out.  The harness prints the adversary-by-adversary
// evidence.
#include <iostream>

#include "core/registry.h"
#include "core/report.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/sb_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE11;
}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  core::Experiment experiment(
      "E11/open-problem",
      "Section 7 (open): is there a constant-round protocol achieving CR or even Sb "
      "independence?  Candidate: the 4-round VSS commit-reveal (gennaro)",
      "gennaro, n = 4..5, adversary library sweep x {uniform, biased product}, "
      "CR/G/Sb testers; evidence only - not a proof",
      kSeed);

  const auto proto = core::make_protocol("gennaro");

  struct Row {
    std::string adversary;
    std::size_t n;
    std::vector<sim::PartyId> corrupted;
    adversary::AdversaryFactory factory;
  };
  sim::ProtocolParams p4;
  p4.n = 4;
  sim::ProtocolParams p5;
  p5.n = 5;

  std::vector<Row> rows;
  rows.push_back({"passive x1", 4, {2}, adversary::passive_factory(*proto, p4)});
  rows.push_back({"passive x2", 5, {1, 3}, adversary::passive_factory(*proto, p5)});
  rows.push_back({"silent x1", 4, {2}, adversary::silent_factory()});
  rows.push_back({"silent x2 (max t)", 5, {0, 4}, adversary::silent_factory()});

  // Uniform and the biased product, as per-party probabilities of a 1.
  const std::vector<std::vector<double>> ensembles = {{0.5, 0.5, 0.5, 0.5},
                                                      {0.3, 0.7, 0.5, 0.8}};

  core::Table table({"adversary", "ensemble", "CR", "G", "Sb", "max gaps (CR/G/Sb)"});
  for (const Row& row : rows) {
    for (std::vector<double> probs : ensembles) {
      // Match the ensemble width to the row's n by padding with fair bits.
      probs.resize(row.n, 0.5);
      const dist::ProductEnsemble ens(probs);
      exec::RunSpec spec;
      spec.protocol = proto.get();
      spec.params.n = row.n;
      spec.corrupted = row.corrupted;
      spec.adversary = row.factory;

      const auto batch = exec::Runner().run_batch(spec, ens, 2500, kSeed);
      const auto cr = testers::test_cr(batch.samples, spec.corrupted);
      const auto g = testers::test_g(batch.samples, spec.corrupted);
      const auto sb = testers::test_sb(spec, ens, 800, kSeed + 1);

      const std::string cell_label = row.adversary + " x " + ens.name();
      experiment.cell(cell_label + " CR", obs::record(cr), obs::Expect::pass);
      experiment.cell(cell_label + " G", obs::record(g), obs::Expect::pass);
      experiment.cell(cell_label + " Sb", obs::record(sb), obs::Expect::pass);
      table.add_row({row.adversary, ens.name(), core::verdict_str(cr.independent),
                     core::verdict_str(g.independent), core::verdict_str(sb.secure),
                     core::fmt(cr.max_gap) + " / " + core::fmt(g.max_excess) + " / " +
                         core::fmt(sb.max_distinguisher_gap)});
    }
  }
  std::cout << table.render() << "\n";
  std::cout << "rounds(gennaro, n) = " << proto->rounds(64)
            << " for every n - constant, matching [12]'s efficiency target.\n";

  return experiment.finish("no CR/G/Sb violation found for the constant-round candidate at "
                           "simulation scale (evidence, not proof)");
}
