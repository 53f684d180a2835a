#include "dist/ensembles.h"

#include <sstream>

#include "base/error.h"
#include "crypto/sha256.h"

namespace simulcast::dist {

namespace {

void check_bits(std::size_t n) {
  if (n == 0 || n > kMaxBits) throw UsageError("InputEnsemble: bad bit count");
}

}  // namespace

ProductEnsemble::ProductEnsemble(std::vector<double> p) : p_(std::move(p)) {
  check_bits(p_.size());
  for (double pi : p_)
    if (pi < 0.0 || pi > 1.0) throw UsageError("ProductEnsemble: probability out of [0,1]");
}

std::string ProductEnsemble::name() const {
  std::ostringstream os;
  os << "product:";
  for (std::size_t i = 0; i < p_.size(); ++i) os << (i ? "," : "") << p_[i];
  return os.str();
}

BitVec ProductEnsemble::sample(stats::Rng& rng) const {
  BitVec v(p_.size());
  for (std::size_t i = 0; i < p_.size(); ++i) v.set(i, rng.bernoulli(p_[i]));
  return v;
}

std::optional<stats::ExactDist> ProductEnsemble::exact() const {
  if (p_.size() > 20) return std::nullopt;
  return stats::ExactDist::product(p_);
}

std::unique_ptr<InputEnsemble> make_uniform(std::size_t n) {
  return std::make_unique<ProductEnsemble>(std::vector<double>(n, 0.5));
}

std::optional<stats::ExactDist> SingletonEnsemble::exact() const {
  if (value_.size() > 20) return std::nullopt;
  return stats::ExactDist::singleton(value_);
}

NoisyCopyEnsemble::NoisyCopyEnsemble(std::size_t n, double eps) : n_(n), eps_(eps) {
  check_bits(n);
  if (n < 2) throw UsageError("NoisyCopyEnsemble: needs n >= 2");
  if (eps < 0.0 || eps > 1.0) throw UsageError("NoisyCopyEnsemble: eps out of [0,1]");
}

std::string NoisyCopyEnsemble::name() const {
  std::ostringstream os;
  os << "noisy-copy:eps=" << eps_;
  return os.str();
}

BitVec NoisyCopyEnsemble::sample(stats::Rng& rng) const {
  BitVec v(n_);
  for (std::size_t i = 0; i + 1 < n_; ++i) v.set(i, rng.bit());
  v.set(n_ - 1, v.get(0) != rng.bernoulli(eps_));
  return v;
}

std::optional<stats::ExactDist> NoisyCopyEnsemble::exact() const {
  if (n_ > 20) return std::nullopt;
  std::vector<double> pmf(std::size_t{1} << n_, 0.0);
  const double base = 1.0 / static_cast<double>(std::size_t{1} << (n_ - 1));
  for (std::size_t v = 0; v < pmf.size(); ++v) {
    const bool first = (v & 1u) != 0;
    const bool last = ((v >> (n_ - 1)) & 1u) != 0;
    pmf[v] = base * (last == first ? 1.0 - eps_ : eps_);
  }
  return stats::ExactDist(n_, std::move(pmf));
}

EvenParityEnsemble::EvenParityEnsemble(std::size_t n) : n_(n) {
  check_bits(n);
  if (n < 2) throw UsageError("EvenParityEnsemble: needs n >= 2");
}

BitVec EvenParityEnsemble::sample(stats::Rng& rng) const {
  BitVec v(n_);
  bool parity = false;
  for (std::size_t i = 0; i + 1 < n_; ++i) {
    const bool b = rng.bit();
    v.set(i, b);
    parity = parity != b;
  }
  v.set(n_ - 1, parity);  // forces even total parity
  return v;
}

std::optional<stats::ExactDist> EvenParityEnsemble::exact() const {
  if (n_ > 20) return std::nullopt;
  std::vector<double> pmf(std::size_t{1} << n_, 0.0);
  const double mass = 1.0 / static_cast<double>(std::size_t{1} << (n_ - 1));
  for (std::size_t v = 0; v < pmf.size(); ++v)
    if ((__builtin_popcountll(v) & 1) == 0) pmf[v] = mass;
  return stats::ExactDist(n_, std::move(pmf));
}

MixtureEnsemble::MixtureEnsemble(std::shared_ptr<const InputEnsemble> a,
                                 std::shared_ptr<const InputEnsemble> b, double weight)
    : a_(std::move(a)), b_(std::move(b)), weight_(weight) {
  if (!a_ || !b_) throw UsageError("MixtureEnsemble: null component");
  if (a_->bits() != b_->bits()) throw UsageError("MixtureEnsemble: width mismatch");
  if (weight < 0.0 || weight > 1.0) throw UsageError("MixtureEnsemble: weight out of [0,1]");
}

std::string MixtureEnsemble::name() const {
  std::ostringstream os;
  os << "mixture:" << weight_ << "*(" << a_->name() << ")+(" << b_->name() << ")";
  return os.str();
}

BitVec MixtureEnsemble::sample(stats::Rng& rng) const {
  return rng.bernoulli(weight_) ? a_->sample(rng) : b_->sample(rng);
}

std::optional<stats::ExactDist> MixtureEnsemble::exact() const {
  const auto ea = a_->exact();
  const auto eb = b_->exact();
  if (!ea || !eb) return std::nullopt;
  std::vector<double> pmf(ea->raw_pmf().size());
  for (std::size_t v = 0; v < pmf.size(); ++v)
    pmf[v] = weight_ * ea->raw_pmf()[v] + (1.0 - weight_) * eb->raw_pmf()[v];
  return stats::ExactDist(bits(), std::move(pmf));
}

PrfCorrelatedEnsemble::PrfCorrelatedEnsemble(std::size_t n, std::uint64_t key)
    : n_(n), key_(key) {
  check_bits(n);
  if (n < 2) throw UsageError("PrfCorrelatedEnsemble: needs n >= 2");
}

bool PrfCorrelatedEnsemble::prf_bit(const BitVec& prefix) const {
  ByteWriter w;
  w.str("simulcast/prf-ensemble/v1");
  w.u64(key_);
  w.u64(prefix.packed());
  const crypto::Digest d = crypto::sha256(w.data());
  return (d[0] & 1u) != 0;
}

BitVec PrfCorrelatedEnsemble::sample(stats::Rng& rng) const {
  BitVec v(n_);
  for (std::size_t i = 0; i + 1 < n_; ++i) v.set(i, rng.bit());
  BitVec prefix(n_ - 1, v.packed());
  v.set(n_ - 1, prf_bit(prefix));
  return v;
}

std::optional<stats::ExactDist> PrfCorrelatedEnsemble::exact() const {
  if (n_ > 20) return std::nullopt;
  std::vector<double> pmf(std::size_t{1} << n_, 0.0);
  const double mass = 1.0 / static_cast<double>(std::size_t{1} << (n_ - 1));
  for (std::size_t prefix = 0; prefix < (std::size_t{1} << (n_ - 1)); ++prefix) {
    const bool last = prf_bit(BitVec(n_ - 1, prefix));
    const std::size_t v = prefix | (static_cast<std::size_t>(last) << (n_ - 1));
    pmf[v] = mass;
  }
  return stats::ExactDist(n_, std::move(pmf));
}

PinnedCoordinateEnsemble::PinnedCoordinateEnsemble(std::size_t n, std::size_t ell, double p_ell,
                                                   BitVec rest)
    : n_(n), ell_(ell), p_ell_(p_ell), rest_(std::move(rest)) {
  check_bits(n);
  if (ell >= n) throw UsageError("PinnedCoordinateEnsemble: ell out of range");
  if (rest_.size() != n - 1) throw UsageError("PinnedCoordinateEnsemble: |rest| != n-1");
  if (p_ell < 0.0 || p_ell > 1.0) throw UsageError("PinnedCoordinateEnsemble: p out of [0,1]");
}

std::string PinnedCoordinateEnsemble::name() const {
  std::ostringstream os;
  os << "pinned:ell=" << ell_ << ",p=" << p_ell_ << ",rest=" << rest_.to_string();
  return os.str();
}

BitVec PinnedCoordinateEnsemble::sample(stats::Rng& rng) const {
  BitVec v(n_);
  std::size_t j = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (i == ell_) continue;
    v.set(i, rest_.get(j++));
  }
  v.set(ell_, rng.bernoulli(p_ell_));
  return v;
}

std::optional<stats::ExactDist> PinnedCoordinateEnsemble::exact() const {
  if (n_ > 20) return std::nullopt;
  std::vector<double> pmf(std::size_t{1} << n_, 0.0);
  BitVec zero(n_);
  BitVec one(n_);
  std::size_t j = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (i == ell_) continue;
    zero.set(i, rest_.get(j));
    one.set(i, rest_.get(j));
    ++j;
  }
  one.set(ell_, true);
  pmf[zero.packed()] += 1.0 - p_ell_;
  pmf[one.packed()] += p_ell_;
  return stats::ExactDist(n_, std::move(pmf));
}

}  // namespace simulcast::dist
