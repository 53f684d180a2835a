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
  obs::ExperimentRecord rec;
  rec.id = "E1/classes";
  rec.paper_claim =
      "Claim 5.6: Singleton, Uniform strictly inside D(G) strictly inside "
      "D(CR) strictly inside D(Sb) = All";
  rec.setup =
      "classify 9 catalogue ensembles (n = 4..5) with exact pmfs; tau = 0.02 "
      "(0.10 for the PRF witness whose finite-family advantage floor is 1/16)";
  core::print_banner(rec);

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
  bool all_expected = true;
  bool left_strict = false;
  bool middle_strict = false;
  bool right_strict = false;
  for (const Entry& e : entries) {
    const dist::ClassReport r = [&] {
      const exec::EvaluationTimer timer;
      return dist::classify(*e.ensemble, e.tau);
    }();
    const bool as_expected = r.locally_independent.member == e.expect_g &&
                             r.computationally_independent.member == e.expect_cr;
    rec.cells.push_back(
        {e.label, obs::check(as_expected,
                             std::string("in D(G)=") +
                                 core::verdict_str(r.locally_independent.member) + " in D(CR)=" +
                                 core::verdict_str(r.computationally_independent.member) +
                                 " (expected " + (e.expect_g ? "G" : "-") +
                                 (e.expect_cr ? "/CR" : "/-") + ")")});
    table.add_row({e.label, core::verdict_str(r.singleton.member),
                   core::verdict_str(r.product.member),
                   core::verdict_str(r.locally_independent.member),
                   core::verdict_str(r.computationally_independent.member), "PASS (=All)",
                   r.locally_independent.member ? r.computationally_independent.witness
                                                : r.locally_independent.witness});
    if (r.locally_independent.member != e.expect_g ||
        r.computationally_independent.member != e.expect_cr)
      all_expected = false;
    if (r.locally_independent.member && !r.singleton.member && e.label != "uniform")
      left_strict = true;  // D(G) strictly contains Singleton and Uniform
    if (!r.locally_independent.member && r.computationally_independent.member)
      middle_strict = true;  // D(G) strictly inside D(CR)
    if (!r.computationally_independent.member) right_strict = true;  // D(CR) strict in All
  }
  std::cout << table.render() << "\n";

  // The containment direction (not just strictness): everything locally
  // independent in the catalogue is also computationally independent.
  bool containment = true;
  for (const Entry& e : entries) {
    const dist::ClassReport r = dist::classify(*e.ensemble, e.tau);
    if (r.locally_independent.member && !r.computationally_independent.member)
      containment = false;
  }

  rec.reproduced = all_expected && left_strict && middle_strict && right_strict && containment;
  rec.detail = std::string("containment D(G) subset of D(CR): ") +
               (containment ? "holds" : "broken") +
               "; strictness witnesses: prf-correlated in D(CR)\\D(G), copy outside D(CR)";
  return core::finish_experiment(rec);
}
