#include "testers/g_tester.h"

#include <cmath>
#include <map>

#include "base/error.h"

namespace simulcast::testers {

namespace {

/// Fewest observations of an honest vector that make it a usable
/// conditioning.
constexpr std::size_t kMinConditioning = 50;

}  // namespace

GVerdict test_g(const std::vector<exec::Sample>& samples,
                const std::vector<sim::PartyId>& corrupted) {
  const exec::EvaluationTimer timer;
  if (samples.empty()) throw UsageError("test_g: no samples");
  if (corrupted.empty()) throw UsageError("test_g: no corrupted party to test");
  const std::size_t n = samples.front().announced.size();
  const std::vector<std::size_t> honest = complement(n, corrupted);
  if (honest.empty()) throw UsageError("test_g: no honest parties");

  GVerdict verdict;

  for (std::size_t i : corrupted) {
    // Bucket samples by the honest announced vector.
    struct Bucket {
      std::size_t total = 0;
      std::size_t ones = 0;  // W_i == 1
    };
    std::map<BitVec, Bucket> buckets;
    for (const exec::Sample& s : samples) {
      Bucket& b = buckets[s.announced.select(honest)];
      ++b.total;
      if (s.announced.get(i)) ++b.ones;
    }
    // Keep statistically usable conditionings.
    std::vector<std::pair<BitVec, Bucket>> usable;
    for (const auto& [vec, bucket] : buckets)
      if (bucket.total >= kMinConditioning) usable.emplace_back(vec, bucket);

    // The pairs tested for all corrupted parties, bounded generously by the
    // usable bucket count squared times corruptions.
    const stats::Budget budget(kAlpha, usable.size() * usable.size() * corrupted.size());
    for (std::size_t a = 0; a < usable.size(); ++a) {
      for (std::size_t b = a + 1; b < usable.size(); ++b) {
        ++verdict.pairs_tested;
        const auto& [vec_r, bucket_r] = usable[a];
        const auto& [vec_s, bucket_s] = usable[b];
        const double p_r =
            static_cast<double>(bucket_r.ones) / static_cast<double>(bucket_r.total);
        const double p_s =
            static_cast<double>(bucket_s.ones) / static_cast<double>(bucket_s.total);
        // gap for bit 1; bit 0's gap is identical by complementation.
        const double gap = std::abs(p_r - p_s);
        const double radius = budget.diff_radius(bucket_r.total, bucket_s.total);
        const double excess = gap - radius;
        if (excess > verdict.max_excess) {
          verdict.max_excess = excess;
          verdict.worst = {i, vec_r, vec_s, gap, radius};
        }
      }
    }
  }
  verdict.independent = verdict.max_excess <= kMargin;
  return verdict;
}

}  // namespace simulcast::testers
