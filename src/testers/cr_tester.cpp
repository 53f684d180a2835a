#include "testers/cr_tester.h"

#include <algorithm>
#include <cmath>

#include "base/error.h"
#include "stats/confidence.h"

namespace simulcast::testers {

std::vector<CrPredicate> default_cr_predicates(std::size_t reduced_bits) {
  std::vector<CrPredicate> lib;
  lib.push_back({"parity==0", [](const BitVec& v) { return !v.parity(); }});
  for (std::size_t j = 0; j < reduced_bits; ++j)
    lib.push_back({"bit" + std::to_string(j) + "==1",
                   [j](const BitVec& v) { return v.get(j); }});
  for (std::size_t j = 0; j < reduced_bits; ++j)
    for (std::size_t l = j + 1; l < reduced_bits; ++l) {
      lib.push_back({"eq:" + std::to_string(j) + "," + std::to_string(l),
                     [j, l](const BitVec& v) { return v.get(j) == v.get(l); }});
      lib.push_back({"and:" + std::to_string(j) + "," + std::to_string(l),
                     [j, l](const BitVec& v) { return v.get(j) && v.get(l); }});
    }
  lib.push_back({"majority", [reduced_bits](const BitVec& v) {
                   return static_cast<std::size_t>(v.popcount()) * 2 > reduced_bits;
                 }});
  lib.push_back({"all-zero", [](const BitVec& v) { return v.packed() == 0; }});
  return lib;
}

CrVerdict test_cr(const std::vector<exec::Sample>& samples,
                  const std::vector<sim::PartyId>& corrupted, const CrOptions& options) {
  const exec::EvaluationTimer timer;
  if (samples.empty()) throw UsageError("test_cr: no samples");
  const std::size_t n = samples.front().announced.size();
  const std::vector<std::size_t> honest = honest_indices(n, corrupted);
  if (honest.empty()) throw UsageError("test_cr: no honest party to test");

  const std::vector<CrPredicate> predicates =
      options.predicates.empty() ? default_cr_predicates(n - 1) : options.predicates;

  CrVerdict verdict;
  verdict.samples = samples.size();
  // Union bound over all tested (i, R) pairs; the three estimated
  // probabilities per pair add a further factor of 3.
  const double alpha_each =
      options.alpha / (3.0 * static_cast<double>(honest.size() * predicates.size()));
  verdict.radius = 3.0 * stats::hoeffding_radius(samples.size(), alpha_each);

  const double count = static_cast<double>(samples.size());
  for (std::size_t i : honest) {
    std::vector<std::size_t> others;
    for (std::size_t j = 0; j < n; ++j)
      if (j != i) others.push_back(j);
    for (const CrPredicate& pred : predicates) {
      double wi_zero = 0.0;
      double pred_true = 0.0;
      double joint = 0.0;
      for (const exec::Sample& s : samples) {
        const bool zero = !s.announced.get(i);
        const bool r = pred.eval(s.announced.select(others));
        wi_zero += zero ? 1.0 : 0.0;
        pred_true += r ? 1.0 : 0.0;
        joint += (zero && r) ? 1.0 : 0.0;
      }
      wi_zero /= count;
      pred_true /= count;
      joint /= count;
      const double gap = std::abs(wi_zero * pred_true - joint);
      if (gap > verdict.max_gap) {
        verdict.max_gap = gap;
        verdict.worst = {i, pred.name, gap, wi_zero, pred_true, joint};
      }
    }
  }
  verdict.independent = verdict.max_gap <= verdict.radius + options.margin;
  return verdict;
}

}  // namespace simulcast::testers
