#include "testers/sb_tester.h"

#include <algorithm>
#include <cmath>

#include "base/error.h"
#include "stats/confidence.h"
#include "stats/empirical.h"

namespace simulcast::testers {

namespace {

/// Packs (x, W) into a 2n-bit vector for joint-histogram comparison.
BitVec pack_pair(const BitVec& x, const BitVec& w) {
  BitVec out(x.size() + w.size());
  for (std::size_t i = 0; i < x.size(); ++i) out.set(i, x.get(i));
  for (std::size_t i = 0; i < w.size(); ++i) out.set(x.size() + i, w.get(i));
  return out;
}

}  // namespace

std::vector<SbDistinguisher> default_sb_distinguishers(
    std::size_t n, const std::vector<sim::PartyId>& corrupted) {
  std::vector<SbDistinguisher> lib;
  const std::vector<std::size_t> honest = honest_indices(n, corrupted);
  // Copy detectors: corrupted announced value equals an honest input.
  for (std::size_t c : corrupted) {
    for (std::size_t j : honest) {
      lib.push_back({"W" + std::to_string(c) + "==x" + std::to_string(j),
                     [c, j](const BitVec& x, const BitVec& w) { return w.get(c) == x.get(j); }});
    }
  }
  // Parity rigging.
  lib.push_back({"parity(W)==0", [](const BitVec&, const BitVec& w) { return !w.parity(); }});
  // Corrupted coordinates themselves.
  for (std::size_t c : corrupted)
    lib.push_back({"W" + std::to_string(c) + "==1",
                   [c](const BitVec&, const BitVec& w) { return w.get(c); }});
  // Honest correctness (should hold in both worlds; catches simulator bugs).
  for (std::size_t j : honest)
    lib.push_back({"W" + std::to_string(j) + "==x" + std::to_string(j),
                   [j](const BitVec& x, const BitVec& w) { return w.get(j) == x.get(j); }});
  return lib;
}

SbVerdict test_sb(const exec::RunSpec& spec, const dist::InputEnsemble& ensemble,
                  const SbOptions& options, std::uint64_t seed) {
  if (spec.protocol == nullptr) throw UsageError("test_sb: null protocol");
  const std::size_t n = spec.params.n;
  if (n > kSbMaxParties)
    throw UsageError("test_sb: n = " + std::to_string(n) + " exceeds " +
                     std::to_string(kSbMaxParties) + " parties (the joint (x, W) takes 2n bits)");
  const std::vector<std::size_t> honest = honest_indices(n, spec.corrupted);

  stats::Rng master(seed);
  stats::Rng input_rng = master.fork("sb-inputs");

  // Inputs and seeds are derived serially, so the verdict is bit-identical
  // for every thread count.  Slot rep of the one batch is the real
  // execution on x_rep, with seed Rng(fork("sb-real", rep)()).fork(
  // "exec-fixed", 0)(); slot samples + rep is the ideal world's sandbox,
  // where the dummy-input simulator runs the adversary on x_rep with the
  // honest inputs pinned to 0, with the same seed over "sb-ideal".
  const std::size_t samples = options.samples;
  std::vector<BitVec> inputs(2 * samples);
  std::vector<std::uint64_t> seeds(2 * samples);
  for (std::size_t rep = 0; rep < samples; ++rep) {
    inputs[rep] = ensemble.sample(input_rng);
    inputs[samples + rep] = inputs[rep];
    for (std::size_t j : honest) inputs[samples + rep].set(j, false);
    seeds[rep] = stats::Rng(master.fork("sb-real", rep)()).fork("exec-fixed", 0)();
    seeds[samples + rep] = stats::Rng(master.fork("sb-ideal", rep)()).fork("exec-fixed", 0)();
  }
  const std::vector<exec::Sample> runs = exec::Runner().run_batch(spec, inputs, seeds).samples;

  const exec::EvaluationTimer timer;
  std::vector<std::pair<BitVec, BitVec>> real_pairs(samples);
  std::vector<std::pair<BitVec, BitVec>> ideal_pairs(samples);
  stats::EmpiricalDist real_joint(2 * n);
  stats::EmpiricalDist ideal_joint(2 * n);
  for (std::size_t rep = 0; rep < samples; ++rep) {
    const BitVec& x = inputs[rep];
    real_pairs[rep] = {x, runs[rep].announced};
    BitVec w_ideal = x;  // f_SB hands honest inputs through verbatim
    for (std::size_t c : spec.corrupted) w_ideal.set(c, runs[samples + rep].announced.get(c));
    ideal_pairs[rep] = {x, w_ideal};
    real_joint.add(pack_pair(real_pairs[rep].first, real_pairs[rep].second));
    ideal_joint.add(pack_pair(ideal_pairs[rep].first, ideal_pairs[rep].second));
  }

  SbVerdict verdict;
  verdict.samples = options.samples;
  verdict.tv_joint = real_joint.tv_distance(ideal_joint);

  const std::vector<SbDistinguisher> lib = default_sb_distinguishers(n, spec.corrupted);
  const double alpha_each = options.alpha / std::max<double>(1.0, static_cast<double>(lib.size()));
  verdict.radius = stats::hoeffding_diff_radius(options.samples, options.samples, alpha_each);
  for (const SbDistinguisher& d : lib) {
    double p_real = 0.0;
    double p_ideal = 0.0;
    for (const auto& [x, w] : real_pairs) p_real += d.eval(x, w) ? 1.0 : 0.0;
    for (const auto& [x, w] : ideal_pairs) p_ideal += d.eval(x, w) ? 1.0 : 0.0;
    p_real /= static_cast<double>(options.samples);
    p_ideal /= static_cast<double>(options.samples);
    const double gap = std::abs(p_real - p_ideal);
    if (gap > verdict.max_distinguisher_gap) {
      verdict.max_distinguisher_gap = gap;
      verdict.worst = {d.name, p_real, p_ideal};
    }
  }
  verdict.secure = verdict.max_distinguisher_gap <= verdict.radius + options.margin;
  return verdict;
}

}  // namespace simulcast::testers
