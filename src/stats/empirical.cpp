#include "stats/empirical.h"

#include <cmath>
#include <numeric>

#include "base/error.h"

namespace simulcast::stats {

void EmpiricalDist::add(const BitVec& sample) {
  if (sample.size() != bits_) throw UsageError("EmpiricalDist::add: wrong bit width");
  ++counts_[sample];
  ++total_;
}

double EmpiricalDist::prob(const Event& event) const {
  if (total_ == 0) return 0.0;
  std::size_t hits = 0;
  for (const auto& [value, count] : counts_)
    if (event(value)) hits += count;
  return static_cast<double>(hits) / static_cast<double>(total_);
}

double EmpiricalDist::joint(const Event& a, const Event& b) const {
  return prob([&](const BitVec& v) { return a(v) && b(v); });
}

std::optional<double> EmpiricalDist::conditional(const Event& a, const Event& b) const {
  const double pb = prob(b);
  if (pb == 0.0) return std::nullopt;
  return joint(a, b) / pb;
}

double EmpiricalDist::marginal_one(std::size_t i) const {
  return prob([i](const BitVec& v) { return v.get(i); });
}

double EmpiricalDist::tv_distance(const EmpiricalDist& other) const {
  if (other.bits_ != bits_) throw UsageError("tv_distance: bit widths differ");
  double sum = 0.0;
  auto it_a = counts_.begin();
  auto it_b = other.counts_.begin();
  const auto p_a = [&](std::size_t c) {
    return total_ ? static_cast<double>(c) / static_cast<double>(total_) : 0.0;
  };
  const auto p_b = [&](std::size_t c) {
    return other.total_ ? static_cast<double>(c) / static_cast<double>(other.total_) : 0.0;
  };
  while (it_a != counts_.end() || it_b != other.counts_.end()) {
    if (it_b == other.counts_.end() || (it_a != counts_.end() && it_a->first < it_b->first)) {
      sum += p_a(it_a->second);
      ++it_a;
    } else if (it_a == counts_.end() || it_b->first < it_a->first) {
      sum += p_b(it_b->second);
      ++it_b;
    } else {
      sum += std::abs(p_a(it_a->second) - p_b(it_b->second));
      ++it_a;
      ++it_b;
    }
  }
  return sum / 2.0;
}

ExactDist::ExactDist(std::size_t bits, std::vector<double> pmf)
    : bits_(bits), pmf_(std::move(pmf)) {
  if (bits > 20) throw UsageError("ExactDist: bits > 20");
  if (pmf_.size() != (std::size_t{1} << bits))
    throw UsageError("ExactDist: pmf size != 2^bits");
  double sum = std::accumulate(pmf_.begin(), pmf_.end(), 0.0);
  if (std::abs(sum - 1.0) > 1e-9) throw UsageError("ExactDist: pmf does not sum to 1");
  for (double p : pmf_)
    if (p < -1e-15) throw UsageError("ExactDist: negative probability");
}

ExactDist ExactDist::singleton(const BitVec& value) {
  std::vector<double> pmf(std::size_t{1} << value.size(), 0.0);
  pmf[value.packed()] = 1.0;
  return {value.size(), std::move(pmf)};
}

ExactDist ExactDist::product(const std::vector<double>& p) {
  const std::size_t n = p.size();
  std::vector<double> pmf(std::size_t{1} << n, 1.0);
  for (std::size_t v = 0; v < pmf.size(); ++v) {
    for (std::size_t i = 0; i < n; ++i) {
      const bool one = ((v >> i) & 1u) != 0;
      pmf[v] *= one ? p[i] : (1.0 - p[i]);
    }
  }
  return {n, std::move(pmf)};
}

ExactDist ExactDist::uniform(std::size_t bits) {
  return product(std::vector<double>(bits, 0.5));
}

double ExactDist::pmf(const BitVec& v) const {
  if (v.size() != bits_) throw UsageError("ExactDist::pmf: wrong width");
  return pmf_[v.packed()];
}

double ExactDist::marginal(const std::vector<std::size_t>& set, const BitVec& u) const {
  if (u.size() != set.size()) throw UsageError("ExactDist::marginal: |u| != |set|");
  double sum = 0.0;
  for (std::size_t v = 0; v < pmf_.size(); ++v) {
    const BitVec full(bits_, v);
    if (full.select(set) == u) sum += pmf_[v];
  }
  return sum;
}

std::optional<double> ExactDist::conditional(const std::vector<std::size_t>& set,
                                             const BitVec& u,
                                             const std::vector<std::size_t>& cond_set,
                                             const BitVec& w) const {
  double joint = 0.0;
  double cond = 0.0;
  for (std::size_t v = 0; v < pmf_.size(); ++v) {
    const BitVec full(bits_, v);
    if (full.select(cond_set) != w) continue;
    cond += pmf_[v];
    if (full.select(set) == u) joint += pmf_[v];
  }
  if (cond == 0.0) return std::nullopt;
  return joint / cond;
}

ExactDist ExactDist::product_of_marginals() const {
  std::vector<double> p(bits_);
  for (std::size_t i = 0; i < bits_; ++i) p[i] = marginal({i}, BitVec(1, 1));
  return product(p);
}

double ExactDist::tv_distance(const ExactDist& other) const {
  if (other.bits_ != bits_) throw UsageError("tv_distance: bit widths differ");
  double sum = 0.0;
  for (std::size_t v = 0; v < pmf_.size(); ++v) sum += std::abs(pmf_[v] - other.pmf_[v]);
  return sum / 2.0;
}

}  // namespace simulcast::stats
