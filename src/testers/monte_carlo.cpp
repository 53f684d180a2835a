#include "testers/monte_carlo.h"

#include "base/error.h"

namespace simulcast::testers {

double consistency_rate(const std::vector<exec::Sample>& samples) {
  if (samples.empty()) throw UsageError("consistency_rate: empty sample set");
  std::size_t ok = 0;
  for (const exec::Sample& s : samples) ok += s.consistent ? 1 : 0;
  return static_cast<double>(ok) / static_cast<double>(samples.size());
}

}  // namespace simulcast::testers
