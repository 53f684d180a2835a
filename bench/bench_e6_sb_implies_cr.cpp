// E6 - Lemma 6.1: (D(CR), Sb)-independence implies (D(CR), CR)-independence.
//
// Empirical form of the implication, plus the contrapositive construction
// from the proof (Appendix A.1):
//   (a) for every protocol/adversary pair that PASSES the Sb tester on a
//       grid of D(CR) distributions (products with varying biases), the CR
//       tester passes on the same grid - no counterexample to the
//       implication;
//   (b) the proof turns a CR attack into an Sb distinguisher: for
//       seq-broadcast + copy (which fails CR on uniform), the Sb tester's
//       distinguisher built from the same event also reports a gap -
//       exhibiting the A.1 transformation concretely.
#include <iostream>

#include "core/registry.h"
#include "core/report.h"
#include "testers/cr_tester.h"
#include "testers/sb_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE6;
}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  obs::ExperimentRecord rec;
  rec.id = "E6/sb-implies-cr";
  rec.paper_claim =
      "Lemma 6.1: a protocol Sb-independent on all of D(CR) is CR-independent on all "
      "of D(CR)";
  rec.setup =
      "grid of 4 product distributions x 4 protocols x passive/silent adversaries, "
      "n = 4, one corruption; 1200 executions per cell";
  rec.seed = kSeed;
  core::print_banner(rec);

  std::vector<std::shared_ptr<dist::InputEnsemble>> grid;
  grid.push_back(dist::make_uniform(4));
  grid.push_back(std::make_shared<dist::ProductEnsemble>(std::vector<double>{0.2, 0.2, 0.2, 0.2}));
  grid.push_back(std::make_shared<dist::ProductEnsemble>(std::vector<double>{0.8, 0.5, 0.3, 0.6}));
  grid.push_back(std::make_shared<dist::ProductEnsemble>(std::vector<double>{0.5, 0.9, 0.5, 0.1}));

  const std::vector<std::string> protocols = {"cgma", "chor-rabin", "gennaro", "seq-broadcast"};

  core::Table table({"protocol", "adversary", "Sb on grid", "CR on grid", "consistent with "
                                                                          "Lemma 6.1?"});
  bool implication_holds = true;
  for (const std::string& name : protocols) {
    const auto proto = core::make_protocol(name);
    for (const std::string& adv_name : {std::string("passive"), std::string("copy")}) {
      if (adv_name == "copy" && name != "seq-broadcast") continue;  // copy targets seq only
      exec::RunSpec spec;
      spec.protocol = proto.get();
      spec.params.n = 4;
      spec.corrupted = {3};
      spec.adversary = adv_name == "passive"
                           ? adversary::passive_factory(*proto, spec.params)
                           : adversary::copy_last_factory(0);

      bool sb_all = true;
      bool cr_all = true;
      for (std::size_t gi = 0; gi < grid.size(); ++gi) {
        testers::SbOptions sb_options;
        sb_options.samples = 600;
        const testers::SbVerdict sb = testers::test_sb(spec, *grid[gi], sb_options, kSeed + gi);
        sb_all = sb_all && sb.secure;
        const auto batch = exec::Runner().run_batch(spec, *grid[gi], 1200, kSeed + 100 + gi);
        const testers::CrVerdict cr = testers::test_cr(batch.samples, spec.corrupted);
        cr_all = cr_all && cr.independent;
      }
      // Lemma 6.1 only forbids (Sb pass, CR fail).
      const bool consistent = !(sb_all && !cr_all);
      implication_holds = implication_holds && consistent;
      rec.cells.push_back(
          {name + " x " + adv_name,
           obs::check(consistent, std::string("Sb on grid ") + (sb_all ? "PASS" : "FAIL") +
                                      ", CR on grid " + (cr_all ? "PASS" : "FAIL") +
                                      " - no (Sb pass, CR fail) cell")});
      table.add_row({name, adv_name, sb_all ? "PASS" : "FAIL", cr_all ? "PASS" : "FAIL",
                     consistent ? "yes" : "NO"});
    }
  }
  std::cout << table.render() << "\n";

  // (b) The A.1 transformation: seq-broadcast + copy fails CR on uniform;
  // the same event as an Sb distinguisher also separates real from ideal.
  const auto seq = core::make_protocol("seq-broadcast");
  exec::RunSpec spec;
  spec.protocol = seq.get();
  spec.params.n = 4;
  spec.corrupted = {3};
  spec.adversary = adversary::copy_last_factory(0);
  const auto uniform = dist::make_uniform(4);
  const auto batch = exec::Runner().run_batch(spec, *uniform, 2000, kSeed + 7);
  const testers::CrVerdict cr = testers::test_cr(batch.samples, spec.corrupted);
  testers::SbOptions sb_options;
  sb_options.samples = 1000;
  const testers::SbVerdict sb = testers::test_sb(spec, *uniform, sb_options, kSeed + 8);
  std::cout << "A.1 construction on seq-broadcast + copy (uniform):\n  "
            << core::describe(cr) << "\n  " << core::describe(sb) << "\n";
  const bool contrapositive = !cr.independent && !sb.secure;
  rec.cells.push_back({"A.1 construction CR", obs::record(cr)});
  rec.cells.push_back({"A.1 construction Sb", obs::record(sb)});

  rec.reproduced = implication_holds && contrapositive;
  rec.detail = std::string("no (Sb pass, CR fail) cell observed: ") +
               (implication_holds ? "yes" : "NO") +
               "; CR attack transforms into Sb distinguisher (gaps " + core::fmt(cr.max_gap) +
               " / " + core::fmt(sb.max_distinguisher_gap) + ")";
  return core::finish_experiment(rec);
}
