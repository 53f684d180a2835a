// 64-bit modular arithmetic and primality testing.
//
// These are the scalar kernels beneath the Schnorr group (crypto/group.h)
// and the runtime-modulus field Zq (crypto/field.h).  Products go through
// unsigned __int128, so every modulus up to 2^63 is supported.
//
// mulmod/powmod pay a 128-by-64-bit division per product.  Montgomery
// replaces that division with two multiplications for a fixed odd
// modulus; the group's hot path runs on it, and mulmod/powmod stay the
// reference its tests compare against.
#pragma once

#include <cstdint>

namespace simulcast::crypto {

/// (a * b) mod m via 128-bit intermediate.  Precondition: m != 0.
[[nodiscard]] std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept;

/// (base ^ exp) mod m by square-and-multiply.  Precondition: m != 0.
[[nodiscard]] std::uint64_t powmod(std::uint64_t base, std::uint64_t exp,
                                   std::uint64_t m) noexcept;

/// Modular inverse of a mod m via extended Euclid; throws simulcast::UsageError
/// when gcd(a, m) != 1.
[[nodiscard]] std::uint64_t invmod(std::uint64_t a, std::uint64_t m);

/// Deterministic Miller-Rabin, correct for all 64-bit inputs (fixed witness
/// set {2,3,5,7,11,13,17,19,23,29,31,37}).
[[nodiscard]] bool is_prime_u64(std::uint64_t n) noexcept;

/// Jacobi symbol (a/n) in {-1, 0, 1} for odd n, by the binary algorithm
/// (shifts and subtractions, no division).  For an odd prime n it is the
/// Legendre symbol, so it equals Euler's criterion a^((n-1)/2) mod n read
/// as 1, -1 (n - 1) or 0.  Precondition: n odd.
[[nodiscard]] int jacobi(std::uint64_t a, std::uint64_t n) noexcept;

/// Montgomery arithmetic modulo a fixed odd m < 2^63, with R = 2^64.
/// A value a is held in the Montgomery domain as aR mod m, in [0, m);
/// `to` and `from` convert, and `mul`/`pow` on domain values pay three
/// 64-bit multiplications per product instead of a 128-bit division.
/// Exact: from(mul(to(a), to(b))) == mulmod(a, b, m) and
/// from(pow(to(a), e)) == powmod(a, e, m) for every 64-bit a, b and e.
class Montgomery {
 public:
  Montgomery() = default;
  /// Throws simulcast::UsageError unless m is odd and m < 2^63.
  explicit Montgomery(std::uint64_t m);

  /// R mod m: the domain form of 1.
  [[nodiscard]] std::uint64_t one() const noexcept { return one_; }

  /// aR mod m for any 64-bit a (a need not be reduced).
  [[nodiscard]] std::uint64_t to(std::uint64_t a) const noexcept {
    return reduce(static_cast<unsigned __int128>(a) * r2_);
  }
  /// The canonical value in [0, m) of a domain value (any 64-bit a is
  /// accepted and reduced: the result is aR^-1 mod m).
  [[nodiscard]] std::uint64_t from(std::uint64_t a) const noexcept { return reduce(a); }
  /// abR^-1 mod m: the domain product of domain values.  Exact whenever
  /// a < m, whatever b is, so mul(to(a), b) is the plain product ab mod m.
  [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    return reduce(static_cast<unsigned __int128>(a) * b);
  }
  /// The domain power a^e of a domain value a < m, by square-and-multiply.
  [[nodiscard]] std::uint64_t pow(std::uint64_t a, std::uint64_t e) const noexcept {
    std::uint64_t result = one_;
    for (; e != 0; e >>= 1) {
      if (e & 1) result = mul(result, a);
      a = mul(a, a);
    }
    return result;
  }

 private:
  /// Montgomery reduction tR^-1 mod m for t < mR.  k = t_lo * m^-1 makes
  /// t - km divisible by R with no borrow out of the low word, so the
  /// quotient is t_hi - (km)_hi, which lies in (-m, m).
  [[nodiscard]] std::uint64_t reduce(unsigned __int128 t) const noexcept {
    const auto lo = static_cast<std::uint64_t>(t);
    const auto hi = static_cast<std::uint64_t>(t >> 64);
    const std::uint64_t k = lo * inv_;
    const auto km_hi = static_cast<std::uint64_t>((static_cast<unsigned __int128>(k) * m_) >> 64);
    return hi >= km_hi ? hi - km_hi : hi - km_hi + m_;
  }

  std::uint64_t m_ = 1;
  std::uint64_t inv_ = 1;  ///< m^-1 mod R
  std::uint64_t one_ = 0;  ///< R mod m
  std::uint64_t r2_ = 0;   ///< R^2 mod m
};

}  // namespace simulcast::crypto
