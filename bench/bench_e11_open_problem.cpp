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
  obs::ExperimentRecord rec;
  rec.id = "E11/open-problem";
  rec.paper_claim =
      "Section 7 (open): is there a constant-round protocol achieving CR or even Sb "
      "independence?  Candidate: the 4-round VSS commit-reveal (gennaro)";
  rec.setup =
      "gennaro, n = 4..5, adversary library sweep x {uniform, biased product}, "
      "CR/G/Sb testers; evidence only - not a proof";
  rec.seed = kSeed;
  core::print_banner(rec);

  const auto proto = core::make_protocol("gennaro");
  static const crypto::HashCommitmentScheme scheme;

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

  std::vector<std::shared_ptr<dist::InputEnsemble>> ensembles;
  ensembles.push_back(dist::make_uniform(4));
  ensembles.push_back(
      std::make_shared<dist::ProductEnsemble>(std::vector<double>{0.3, 0.7, 0.5, 0.8}));

  core::Table table({"adversary", "ensemble", "CR", "G", "Sb", "max gaps (CR/G/Sb)"});
  bool all_pass = true;
  for (const Row& row : rows) {
    for (const auto& base_ens : ensembles) {
      // Match the ensemble width to the row's n by padding with fair bits.
      std::shared_ptr<dist::InputEnsemble> ens = base_ens;
      if (ens->bits() != row.n) {
        std::vector<double> probs(row.n, 0.5);
        ens = std::make_shared<dist::ProductEnsemble>(probs);
      }
      exec::RunSpec spec;
      spec.protocol = proto.get();
      spec.params.n = row.n;
      spec.corrupted = row.corrupted;
      spec.adversary = row.factory;

      const auto batch = exec::Runner().run_batch(spec, *ens, 2500, kSeed);
      const auto cr = testers::test_cr(batch.samples, spec.corrupted);
      const auto g = testers::test_g(batch.samples, spec.corrupted);
      testers::SbOptions sb_options;
      sb_options.samples = 800;
      const auto sb = testers::test_sb(spec, *ens, sb_options, kSeed + 1);

      const std::string cell_label = row.adversary + " x " + ens->name();
      rec.cells.push_back({cell_label + " CR", obs::record(cr)});
      rec.cells.push_back({cell_label + " G", obs::record(g)});
      rec.cells.push_back({cell_label + " Sb", obs::record(sb)});
      table.add_row({row.adversary, ens->name(), core::verdict_str(cr.independent),
                     core::verdict_str(g.independent), core::verdict_str(sb.secure),
                     core::fmt(cr.max_gap) + " / " + core::fmt(g.max_excess) + " / " +
                         core::fmt(sb.max_distinguisher_gap)});
      all_pass = all_pass && cr.independent && g.independent && sb.secure;
    }
  }
  std::cout << table.render() << "\n";
  std::cout << "rounds(gennaro, n) = " << proto->rounds(64)
            << " for every n - constant, matching [12]'s efficiency target.\n";

  rec.reproduced = all_pass;
  rec.detail = all_pass ? "no CR/G/Sb violation found for the constant-round candidate at "
                          "simulation scale (evidence, not proof)"
                        : "the candidate shows a violation - see table";
  return core::finish_experiment(rec);
}
