// E5 - Proposition 6.3: the class Singleton is trivial for CR-independence
// but NOT trivial for Sb-independence.
//
// Protocol: seq-broadcast with the copy adversary - the paper's canonical
// non-simultaneous protocol.  We sweep every singleton distribution over
// {0,1}^4 and show:
//   (a) CR is vacuously satisfied on each singleton (every probability in
//       Definition 4.3 is 0/1 and the gap collapses), even though the
//       protocol is obviously dependent;
//   (b) Sb fails on the Singleton *class*: Definition 4.2 demands ONE
//       simulator for every distribution in the class, and the dummy-input
//       simulator's corrupted announced value cannot track the honest input
//       across singletons - the copy detector distinguishes with advantage
//       ~ 1 on the singletons whose victim bit is 1.
#include <iostream>

#include "core/registry.h"
#include "core/report.h"
#include "testers/cr_tester.h"
#include "testers/sb_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE5;
}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  obs::ExperimentRecord rec;
  rec.id = "E5/singleton";
  rec.paper_claim = "Prop. 6.3: Singleton is trivial for CR but not trivial for Sb";
  rec.setup =
      "seq-broadcast, n = 4, copy adversary (P3 copies honest P0), sweeping all 16 "
      "singleton input distributions; 400 executions per singleton";
  rec.seed = kSeed;
  core::print_banner(rec);

  const auto proto = core::make_protocol("seq-broadcast");
  exec::RunSpec spec;
  spec.protocol = proto.get();
  spec.params.n = 4;
  spec.corrupted = {3};
  spec.adversary = adversary::copy_last_factory(0);

  core::Table table({"singleton", "CR verdict", "CR max gap", "Sb verdict", "Sb worst gap",
                     "worst distinguisher"});
  bool cr_trivial = true;      // CR passes on every singleton
  bool sb_fails_somewhere = false;  // some singleton defeats the class simulator
  double worst_sb_gap = 0.0;

  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    const dist::SingletonEnsemble ens(BitVec(4, bits));
    const auto batch = exec::Runner().run_batch(spec, ens, 400, kSeed + bits);
    const testers::CrVerdict cr = testers::test_cr(batch.samples, spec.corrupted);

    testers::SbOptions sb_options;
    sb_options.samples = 400;
    const testers::SbVerdict sb = testers::test_sb(spec, ens, sb_options, kSeed + bits);

    rec.cells.push_back({BitVec(4, bits).to_string() + " CR", obs::record(cr)});
    rec.cells.push_back({BitVec(4, bits).to_string() + " Sb", obs::record(sb)});
    table.add_row({BitVec(4, bits).to_string(), cr.independent ? "independent" : "VIOLATED",
                   core::fmt(cr.max_gap), sb.secure ? "simulatable" : "VIOLATED",
                   core::fmt(sb.max_distinguisher_gap), sb.worst.distinguisher});
    cr_trivial = cr_trivial && cr.independent;
    if (!sb.secure) sb_fails_somewhere = true;
    worst_sb_gap = std::max(worst_sb_gap, sb.max_distinguisher_gap);
  }
  std::cout << table.render() << "\n";

  rec.reproduced = cr_trivial && sb_fails_somewhere;
  rec.detail = std::string("CR vacuous on all 16 singletons: ") + (cr_trivial ? "yes" : "NO") +
               "; Sb class-simulation broken (worst distinguisher advantage " +
               core::fmt(worst_sb_gap) + ")";
  return core::finish_experiment(rec);
}
