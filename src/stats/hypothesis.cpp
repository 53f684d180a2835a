#include "stats/hypothesis.h"

#include <cmath>
#include <limits>
#include <map>

#include "base/error.h"

namespace simulcast::stats {

namespace {

// Contingency table: rows indexed by bit i (0/1), columns by the packed
// value of the remaining bits.
struct Table {
  std::map<std::uint64_t, std::array<double, 2>> cells;
  double row_total[2] = {0.0, 0.0};
  double grand = 0.0;
};

Table build_table(const EmpiricalDist& dist, std::size_t i) {
  Table t;
  for (const auto& [value, count] : dist.counts()) {
    const int row = value.get(i) ? 1 : 0;
    // Pack the remaining bits by clearing bit i and compacting.
    std::uint64_t rest = 0;
    std::size_t out_bit = 0;
    for (std::size_t j = 0; j < value.size(); ++j) {
      if (j == i) continue;
      if (value.get(j)) rest |= (std::uint64_t{1} << out_bit);
      ++out_bit;
    }
    auto& cell = t.cells[rest];
    cell[static_cast<std::size_t>(row)] += static_cast<double>(count);
    t.row_total[row] += static_cast<double>(count);
    t.grand += static_cast<double>(count);
  }
  return t;
}

template <typename CellTerm>
TestResult table_test(const EmpiricalDist& dist, std::size_t i, CellTerm term) {
  if (i >= dist.bits()) throw UsageError("independence test: bit index out of range");
  const Table t = build_table(dist, i);
  if (t.grand == 0.0 || t.cells.empty()) return {0.0, 0.0, 1.0};
  double stat = 0.0;
  std::size_t used_columns = 0;
  for (const auto& [rest, cell] : t.cells) {
    const double col_total = cell[0] + cell[1];
    if (col_total == 0.0) continue;
    ++used_columns;
    for (int row = 0; row < 2; ++row) {
      const double expected = t.row_total[row] * col_total / t.grand;
      if (expected <= 0.0) continue;
      stat += term(cell[static_cast<std::size_t>(row)], expected);
    }
  }
  const double rows_minus_1 = (t.row_total[0] > 0.0 && t.row_total[1] > 0.0) ? 1.0 : 0.0;
  const double dof = rows_minus_1 * static_cast<double>(used_columns > 0 ? used_columns - 1 : 0);
  if (dof == 0.0) return {stat, 0.0, 1.0};
  return {stat, dof, chi2_sf(stat, dof)};
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  if (a <= 0.0 || x < 0.0) throw UsageError("regularized_gamma_p: bad arguments");
  if (x == 0.0) return 0.0;
  constexpr int kMaxIter = 500;
  constexpr double kEps = 1e-14;
  if (x < a + 1.0) {
    // Series representation.
    double ap = a;
    double sum = 1.0 / a;
    double del = sum;
    for (int i = 0; i < kMaxIter; ++i) {
      ap += 1.0;
      del *= x / ap;
      sum += del;
      if (std::abs(del) < std::abs(sum) * kEps) break;
    }
    return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
  }
  // Continued fraction for Q(a, x); P = 1 - Q.
  constexpr double kFpMin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIter; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::abs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  const double q = std::exp(-x + a * std::log(x) - std::lgamma(a)) * h;
  return 1.0 - q;
}

double chi2_sf(double statistic, double k) {
  if (statistic <= 0.0) return 1.0;
  return 1.0 - regularized_gamma_p(k / 2.0, statistic / 2.0);
}

TestResult chi2_independence(const EmpiricalDist& dist, std::size_t i) {
  return table_test(dist, i, [](double observed, double expected) {
    const double diff = observed - expected;
    return diff * diff / expected;
  });
}

TestResult g_test_independence(const EmpiricalDist& dist, std::size_t i) {
  return table_test(dist, i, [](double observed, double expected) {
    if (observed <= 0.0) return 0.0;
    return 2.0 * observed * std::log(observed / expected);
  });
}

TestResult chi2_goodness_of_fit(const EmpiricalDist& dist, const ExactDist& model) {
  if (dist.bits() != model.bits()) throw UsageError("goodness_of_fit: widths differ");
  const double n = static_cast<double>(dist.count());
  if (n == 0.0) return {0.0, 0.0, 1.0};
  for (const auto& [value, count] : dist.counts())
    if (model.raw_pmf()[value.packed()] <= 0.0)
      return {std::numeric_limits<double>::infinity(), 0.0, 0.0};
  double stat = 0.0;
  std::size_t cells = 0;
  for (std::size_t v = 0; v < model.raw_pmf().size(); ++v) {
    const double expected = model.raw_pmf()[v] * n;
    if (expected <= 0.0) continue;
    ++cells;
    double observed = 0.0;
    const BitVec key(model.bits(), v);
    auto it = dist.counts().find(key);
    if (it != dist.counts().end()) observed = static_cast<double>(it->second);
    const double diff = observed - expected;
    stat += diff * diff / expected;
  }
  const double dof = cells > 1 ? static_cast<double>(cells - 1) : 0.0;
  if (dof == 0.0) return {stat, 0.0, 1.0};
  return {stat, dof, chi2_sf(stat, dof)};
}

}  // namespace simulcast::stats
