// E10 - Figure 1: the paper's implication/separation diagram, regenerated
// from measurements.
//
//            D(CR)                    D(G)
//     Sb ==========> CR        CR ==========> G
//     Sb <===/=== CR (Singleton)   CR <===/=== G (D(G), incl. uniform)
//
// Each arrow is re-derived from a dedicated measurement:
//   Sb => CR   : Gennaro/passive passes Sb and CR on a D(CR) ensemble.
//   CR =/=> Sb : seq-broadcast/copy on a singleton: CR vacuously holds,
//                Sb simulation fails (Prop. 6.3).
//   CR => G    : Gennaro/passive passes CR and G on a D(G) ensemble.
//   G =/=> CR  : flawed-pi-g under A* on uniform: G holds, CR fails
//                (Lemma 6.4).
#include <iostream>

#include "core/registry.h"
#include "core/report.h"
#include "testers/cr_tester.h"
#include "testers/g_tester.h"
#include "testers/sb_tester.h"
#include "exec/runner.h"

namespace {
using namespace simulcast;
constexpr std::uint64_t kSeed = 0xE10;
}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  obs::ExperimentRecord rec;
  rec.id = "E10/figure1";
  rec.paper_claim =
      "Figure 1: Sb =(D(CR))=> CR, CR =/= (Singleton)=> Sb; CR =(D(G))=> G, "
      "G =/= (D(G))=> CR";
  rec.setup = "composes the four arrows from dedicated measurements (n = 4..5)";
  rec.seed = kSeed;
  core::print_banner(rec);

  const auto uniform4 = dist::make_uniform(4);
  const auto uniform5 = dist::make_uniform(5);

  // Arrow 1: Sb => CR witnessed positively by gennaro/passive.
  bool arrow1 = false;
  {
    const auto proto = core::make_protocol("gennaro");
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 4;
    spec.corrupted = {2};
    spec.adversary = adversary::passive_factory(*proto, spec.params);
    testers::SbOptions sb_options;
    sb_options.samples = 900;
    const auto sb = testers::test_sb(spec, *uniform4, sb_options, kSeed);
    const auto batch = exec::Runner().run_batch(spec, *uniform4, 2500, kSeed + 1);
    const auto cr = testers::test_cr(batch.samples, spec.corrupted);
    arrow1 = sb.secure && cr.independent;
    rec.cells.push_back(
        {"Sb => CR (gennaro/passive, uniform)",
         obs::check(arrow1, std::string("Sb ") + core::verdict_str(sb.secure) + ", CR " +
                                core::verdict_str(cr.independent))});
    std::cout << "Sb ==> CR   (gennaro/passive, uniform):    Sb "
              << core::verdict_str(sb.secure) << ", CR " << core::verdict_str(cr.independent)
              << "\n";
  }

  // Arrow 2: CR =/=> Sb on Singleton (Prop. 6.3).
  bool arrow2 = false;
  {
    const auto proto = core::make_protocol("seq-broadcast");
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 4;
    spec.corrupted = {3};
    spec.adversary = adversary::copy_last_factory(0);
    const dist::SingletonEnsemble singleton(BitVec::from_string("1011"));
    const auto batch = exec::Runner().run_batch(spec, singleton, 800, kSeed + 2);
    const auto cr = testers::test_cr(batch.samples, spec.corrupted);
    testers::SbOptions sb_options;
    sb_options.samples = 600;
    const auto sb = testers::test_sb(spec, singleton, sb_options, kSeed + 3);
    arrow2 = cr.independent && !sb.secure;
    rec.cells.push_back(
        {"CR =/=> Sb (seq/copy, singleton 1011)",
         obs::check(arrow2, std::string("CR ") + core::verdict_str(cr.independent) + ", Sb " +
                                core::verdict_str(sb.secure) +
                                " (separation needs CR PASS + Sb FAIL)")});
    std::cout << "CR =/=> Sb  (seq/copy, singleton 1011):    CR "
              << core::verdict_str(cr.independent) << ", Sb " << core::verdict_str(sb.secure)
              << " (separation needs CR PASS + Sb FAIL)\n";
  }

  // Arrow 3: CR => G witnessed positively by gennaro/passive.
  bool arrow3 = false;
  {
    const auto proto = core::make_protocol("gennaro");
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 4;
    spec.corrupted = {1};
    spec.adversary = adversary::passive_factory(*proto, spec.params);
    const auto batch = exec::Runner().run_batch(spec, *uniform4, 3000, kSeed + 4);
    const auto cr = testers::test_cr(batch.samples, spec.corrupted);
    const auto g = testers::test_g(batch.samples, spec.corrupted);
    arrow3 = cr.independent && g.independent;
    rec.cells.push_back(
        {"CR => G (gennaro/passive, uniform)",
         obs::check(arrow3, std::string("CR ") + core::verdict_str(cr.independent) + ", G " +
                                core::verdict_str(g.independent))});
    std::cout << "CR ==> G    (gennaro/passive, uniform):    CR "
              << core::verdict_str(cr.independent) << ", G " << core::verdict_str(g.independent)
              << "\n";
  }

  // Arrow 4: G =/=> CR on D(G) including uniform (Lemma 6.4).
  bool arrow4 = false;
  {
    const auto proto = core::make_protocol("flawed-pi-g");
    exec::RunSpec spec;
    spec.protocol = proto.get();
    spec.params.n = 5;
    spec.corrupted = {1, 3};
    spec.adversary = adversary::parity_factory();
    const auto batch = exec::Runner().run_batch(spec, *uniform5, 4000, kSeed + 5);
    const auto g = testers::test_g(batch.samples, spec.corrupted);
    const auto cr = testers::test_cr(batch.samples, spec.corrupted);
    arrow4 = g.independent && !cr.independent;
    rec.cells.push_back(
        {"G =/=> CR (flawed-pi-g/A*, uniform)",
         obs::check(arrow4, std::string("G ") + core::verdict_str(g.independent) + ", CR " +
                                core::verdict_str(cr.independent) +
                                " (separation needs G PASS + CR FAIL)")});
    std::cout << "G =/=> CR   (flawed-pi-g/A*, uniform):     G "
              << core::verdict_str(g.independent) << ", CR " << core::verdict_str(cr.independent)
              << " (separation needs G PASS + CR FAIL)\n";
  }

  std::cout << "\n            D(CR)                        D(G)\n"
            << "    Sb ====[" << (arrow1 ? "ok" : "??") << "]====> CR       CR ====["
            << (arrow3 ? "ok" : "??") << "]====> G\n"
            << "    Sb <===[" << (arrow2 ? "broken-as-claimed" : "??")
            << "]=== CR       CR <===[" << (arrow4 ? "broken-as-claimed" : "??")
            << "]=== G\n        (Singleton)                  (uniform in D(G))\n\n";

  rec.reproduced = arrow1 && arrow2 && arrow3 && arrow4;
  rec.detail = "all four arrows of Figure 1 reproduced from measurements";
  return core::finish_experiment(rec);
}
