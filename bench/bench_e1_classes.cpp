// E1 - Claim 5.6: Singleton, Uniform ⊊ D(G) ⊊ D(CR) ⊊ D(Sb) = All.
//
// Classifies a catalogue of input-distribution ensembles into the paper's
// achievability classes and checks the strict containment chain with
// explicit witnesses:
//   - every singleton and the uniform distribution are in D(G) and D(CR);
//   - a near-singleton perturbation is in D(G) but is not Singleton/Uniform
//     (left strictness);
//   - the PRF-correlated ensemble is in D(CR) \ D(G) (middle strictness);
//   - the copy ensemble is outside D(CR) but, like everything, in
//     D(Sb) = All (right strictness).
#include <iostream>
#include <memory>

#include "core/report.h"
#include "dist/classes.h"
#include "exec/runner.h"

namespace {

using namespace simulcast;

struct Entry {
  std::string label;
  std::shared_ptr<dist::InputEnsemble> ensemble;
  double tau;
  bool expect_g;   // in D(G) (locally independent)
  bool expect_cr;  // in D(CR) (computationally independent)
};

}  // namespace

int main(int argc, char** argv) {
  exec::configure(argc, argv);  // --threads=N / --json=PATH / --trace=PATH (strict)
  core::Experiment experiment(
      "E1/classes",
      "Claim 5.6: Singleton, Uniform strictly inside D(G) strictly inside "
      "D(CR) strictly inside D(Sb) = All",
      "classify 9 catalogue ensembles (n = 4..5) with exact pmfs; tau = 0.02 "
      "(0.10 for the PRF witness whose finite-family advantage floor is 1/16)");

  const double tau = 0.02;
  std::vector<Entry> entries;
  entries.push_back({"singleton 1010",
                     std::make_shared<dist::SingletonEnsemble>(BitVec::from_string("1010")), tau,
                     true, true});
  entries.push_back({"uniform", std::shared_ptr<dist::InputEnsemble>(dist::make_uniform(4)), tau,
                     true, true});
  entries.push_back({"product(.2,.5,.8,.5)",
                     std::make_shared<dist::ProductEnsemble>(std::vector<double>{0.2, 0.5, 0.8,
                                                                                 0.5}),
                     tau, true, true});
  // A 99/1 mixture of singletons differing in one bit is the product with
  // p = (1,1,1,.99): inside D(G) and D(CR) and tau-close to a singleton.
  entries.push_back({"near-singleton (99/1 mix)",
                     std::make_shared<dist::MixtureEnsemble>(
                         std::make_shared<dist::SingletonEnsemble>(BitVec::from_string("1111")),
                         std::make_shared<dist::SingletonEnsemble>(BitVec::from_string("1110")),
                         0.99),
                     tau, true, true});
  entries.push_back({"noisy-copy eps=.45", std::make_shared<dist::NoisyCopyEnsemble>(4, 0.45),
                     0.11, true, true});
  entries.push_back({"prf-correlated (n=5,key=0)",
                     std::make_shared<dist::PrfCorrelatedEnsemble>(5, 0), 0.10, false, true});
  entries.push_back({"copy (eps=0)", std::make_shared<dist::NoisyCopyEnsemble>(4, 0.0), tau,
                     false, false});
  entries.push_back({"even-parity", std::make_shared<dist::EvenParityEnsemble>(4), tau, false,
                     false});
  entries.push_back({"mix of two singletons (50/50)",
                     std::make_shared<dist::MixtureEnsemble>(
                         std::make_shared<dist::SingletonEnsemble>(BitVec::from_string("1111")),
                         std::make_shared<dist::SingletonEnsemble>(BitVec::from_string("0000")),
                         0.5),
                     tau, false, false});

  core::Table table({"ensemble", "singleton?", "product?", "in D(G)?", "in D(CR)?", "in D(Sb)?",
                     "worst witness"});
  // The first catalogue entry witnessing each strict link of the chain,
  // and the first one (if any) breaking the containment D(G) in D(CR).
  std::string left, middle, right, broken;
  for (const Entry& e : entries) {
    const dist::ClassReport r = [&] {
      const exec::EvaluationTimer timer;
      return dist::classify(*e.ensemble, e.tau);
    }();
    const bool in_g = r.locally_independent.member;
    const bool in_cr = r.computationally_independent.member;
    experiment.cell(e.label,
                    obs::check(in_g == e.expect_g && in_cr == e.expect_cr,
                               std::string("in D(G)=") + core::verdict_str(in_g) + " in D(CR)=" +
                                   core::verdict_str(in_cr) + " (expected " +
                                   (e.expect_g ? "G" : "-") + (e.expect_cr ? "/CR" : "/-") + ")"),
                    obs::Expect::pass);
    table.add_row({e.label, core::verdict_str(r.singleton.member),
                   core::verdict_str(r.product.member), core::verdict_str(in_g),
                   core::verdict_str(in_cr), "PASS (=All)",
                   in_g ? r.computationally_independent.witness : r.locally_independent.witness});
    const auto note = [&](std::string& first, bool holds) {
      if (holds && first.empty()) first = e.label;
    };
    note(left, in_g && !r.singleton.member && e.label != "uniform");
    note(middle, !in_g && in_cr);
    note(right, !in_cr);
    note(broken, in_g && !in_cr);
  }
  std::cout << table.render() << "\n";

  const auto witness = [&](const std::string& label, const std::string& found,
                           const std::string& what) {
    experiment.cell(label,
                    obs::check(!found.empty(), (found.empty() ? "no entry" : found) + " " + what),
                    obs::Expect::pass);
  };
  witness("Singleton, Uniform strictly inside D(G)", left,
          "is in D(G) but neither a singleton nor uniform");
  witness("D(G) strictly inside D(CR)", middle, "is in D(CR) \\ D(G)");
  witness("D(CR) strictly inside All", right, "is outside D(CR)");
  experiment.cell("D(G) inside D(CR)",
                  obs::check(broken.empty(), broken.empty()
                                                 ? "every catalogue entry in D(G) is in D(CR)"
                                                 : broken + " is in D(G) but not in D(CR)"),
                  obs::Expect::pass);

  return experiment.finish("the catalogue classifies as the paper predicts and the chain is "
                           "strict at every link");
}
