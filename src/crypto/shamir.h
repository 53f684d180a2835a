// Shamir secret sharing over a prime field (header-only template).
//
// Works with Zq (crypto/field.h): PedersenVss (crypto/vss.h) deals its
// secret and blinding polynomials with Polynomial<Zq> and reconstructs with
// shamir_reconstruct, which every VSS-based protocol's reveal phase and the
// Theta-MPC backend (protocols/theta_mpc.h) run through.  It also works
// with Fp61, which the Shamir micro-benchmarks and the unlinked BGW engine
// (mpc/bgw.h) use.  A (t, n) sharing uses a degree-t polynomial, so any t+1
// shares reconstruct and any t reveal nothing.  Share points are x = 1..n
// (party index + 1, never 0).
#pragma once

#include <cstddef>
#include <vector>

#include "base/error.h"
#include "crypto/hmac.h"

namespace simulcast::crypto {

template <typename F>
struct Share {
  std::uint64_t x = 0;  ///< evaluation point (party index + 1)
  F y{};                ///< polynomial value at x
};

/// Polynomial with coefficients in F, constant term first.
template <typename F>
class Polynomial {
 public:
  explicit Polynomial(std::vector<F> coefficients) : coeffs_(std::move(coefficients)) {
    if (coeffs_.empty()) throw UsageError("Polynomial: no coefficients");
  }

  /// Random polynomial of degree `degree` with the given constant term.
  static Polynomial random(const F& constant_term, std::size_t degree, HmacDrbg& drbg) {
    std::vector<F> coeffs;
    coeffs.reserve(degree + 1);
    coeffs.push_back(constant_term);
    for (std::size_t i = 0; i < degree; ++i) coeffs.push_back(constant_term.sample_same(drbg));
    return Polynomial(std::move(coeffs));
  }

  [[nodiscard]] std::size_t degree() const noexcept { return coeffs_.size() - 1; }
  [[nodiscard]] const std::vector<F>& coefficients() const noexcept { return coeffs_; }

  /// Horner evaluation at x.
  [[nodiscard]] F eval(const F& x) const {
    F acc = coeffs_.back();
    for (std::size_t i = coeffs_.size() - 1; i-- > 0;) acc = acc * x + coeffs_[i];
    return acc;
  }

 private:
  std::vector<F> coeffs_;
};

/// Deals a (threshold, n) sharing of `secret`: a random degree-`threshold`
/// polynomial f with f(0) = secret, shares f(1)..f(n).
/// Requires threshold < n.
template <typename F>
[[nodiscard]] std::vector<Share<F>> shamir_share(const F& secret, std::size_t threshold,
                                                 std::size_t n, HmacDrbg& drbg) {
  if (threshold >= n) throw UsageError("shamir_share: threshold >= n");
  const Polynomial<F> poly = Polynomial<F>::random(secret, threshold, drbg);
  std::vector<Share<F>> shares;
  shares.reserve(n);
  for (std::size_t i = 1; i <= n; ++i)
    shares.push_back({i, poly.eval(secret.with_same_modulus(i))});
  return shares;
}

/// Lagrange coefficient λ_j(0) for interpolation at zero over the points in
/// `shares` (all x distinct, nonzero).
template <typename F>
[[nodiscard]] F lagrange_at_zero(const std::vector<Share<F>>& shares, std::size_t j) {
  const F xj = shares[j].y.with_same_modulus(shares[j].x);
  F num = xj.with_same_modulus(1);
  F den = xj.with_same_modulus(1);
  for (std::size_t m = 0; m < shares.size(); ++m) {
    if (m == j) continue;
    const F xm = xj.with_same_modulus(shares[m].x);
    num = num * xm;
    den = den * (xm - xj);
  }
  return num * den.inverse();
}

/// Reconstructs the secret from any set of shares on distinct points; the
/// caller must supply at least threshold+1 correct shares.  Throws
/// UsageError on duplicate points or an empty set.
template <typename F>
[[nodiscard]] F shamir_reconstruct(const std::vector<Share<F>>& shares) {
  if (shares.empty()) throw UsageError("shamir_reconstruct: no shares");
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (shares[i].x == 0) throw UsageError("shamir_reconstruct: x == 0");
    for (std::size_t j = i + 1; j < shares.size(); ++j)
      if (shares[i].x == shares[j].x) throw UsageError("shamir_reconstruct: duplicate point");
  }
  F acc = shares[0].y.with_same_modulus(0);
  for (std::size_t j = 0; j < shares.size(); ++j)
    acc = acc + shares[j].y * lagrange_at_zero(shares, j);
  return acc;
}

}  // namespace simulcast::crypto
