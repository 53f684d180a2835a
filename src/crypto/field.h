// Prime fields used by the secret-sharing substrates.
//
// Zq is a runtime-modulus field used for exponent arithmetic of the Schnorr
// group (crypto/group.h), where the modulus is the group order q: Pedersen
// commitments, sigma proofs and the polynomials PedersenVss (crypto/vss.h)
// shares with, which is the sharing every VSS-based protocol and the
// Theta-MPC backend (protocols/theta_mpc.h) run.  Fp61 is GF(2^61 - 1), a
// fast fixed-modulus field; only the Shamir micro-benchmarks and the BGW
// engine (mpc/bgw.h, which no product binary links) use it.  Both satisfy
// the FieldElement shape expected by the Shamir template
// (crypto/shamir.h): +, -, *, inverse, value(), and a static sample() from
// a DRBG.
#pragma once

#include <cstdint>

#include "base/error.h"
#include "crypto/hmac.h"
#include "crypto/modmath.h"

namespace simulcast::crypto {

/// GF(p) with p = 2^61 - 1 (a Mersenne prime).  Elements are canonical
/// representatives in [0, p).
class Fp61 {
 public:
  static constexpr std::uint64_t kModulus = (std::uint64_t{1} << 61) - 1;

  constexpr Fp61() = default;
  /// Reduces an arbitrary 64-bit value into the field.
  constexpr explicit Fp61(std::uint64_t v) noexcept : v_(reduce_once(v % kModulus)) {}

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return v_; }
  [[nodiscard]] static constexpr Fp61 zero() noexcept { return Fp61{}; }
  [[nodiscard]] static constexpr Fp61 one() noexcept { return Fp61{1}; }
  [[nodiscard]] static constexpr std::uint64_t modulus() noexcept { return kModulus; }

  friend constexpr Fp61 operator+(Fp61 a, Fp61 b) noexcept {
    return from_raw(reduce_once(a.v_ + b.v_));
  }
  friend constexpr Fp61 operator-(Fp61 a, Fp61 b) noexcept {
    return from_raw(reduce_once(a.v_ + kModulus - b.v_));
  }
  friend Fp61 operator*(Fp61 a, Fp61 b) noexcept {
    // Mersenne reduction: split the 128-bit product at bit 61.
    const unsigned __int128 prod = static_cast<unsigned __int128>(a.v_) * b.v_;
    const std::uint64_t lo = static_cast<std::uint64_t>(prod) & kModulus;
    const std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
    return from_raw(reduce_once(reduce_once(lo + (hi & kModulus)) + (hi >> 61)));
  }
  constexpr Fp61 operator-() const noexcept { return from_raw(v_ == 0 ? 0 : kModulus - v_); }

  Fp61& operator+=(Fp61 b) noexcept { return *this = *this + b; }
  Fp61& operator-=(Fp61 b) noexcept { return *this = *this - b; }
  Fp61& operator*=(Fp61 b) noexcept { return *this = *this * b; }

  friend constexpr bool operator==(Fp61 a, Fp61 b) noexcept { return a.v_ == b.v_; }
  friend constexpr bool operator!=(Fp61 a, Fp61 b) noexcept { return a.v_ != b.v_; }

  /// a^exp by square-and-multiply.
  [[nodiscard]] Fp61 pow(std::uint64_t exp) const noexcept;

  /// Multiplicative inverse via Fermat; throws UsageError on zero.
  [[nodiscard]] Fp61 inverse() const;

  /// Uniform field element from a DRBG.
  [[nodiscard]] static Fp61 sample(HmacDrbg& drbg) { return Fp61{drbg.below(kModulus)}; }

  /// Element with value `v` in the same field (generic-code hook shared
  /// with Zq, where the modulus is carried per element).
  [[nodiscard]] constexpr Fp61 with_same_modulus(std::uint64_t v) const noexcept {
    return Fp61{v};
  }

  /// Uniform element in the same field.
  [[nodiscard]] Fp61 sample_same(HmacDrbg& drbg) const { return sample(drbg); }

 private:
  static constexpr Fp61 from_raw(std::uint64_t v) noexcept {
    Fp61 e;
    e.v_ = v;
    return e;
  }
  static constexpr std::uint64_t reduce_once(std::uint64_t v) noexcept {
    return v >= kModulus ? v - kModulus : v;
  }

  std::uint64_t v_ = 0;
};

/// GF(q) with runtime modulus q < 2^63.  Each element carries its modulus;
/// mixing moduli throws UsageError.  Used for Schnorr-group exponents.
class Zq {
 public:
  Zq() = default;
  Zq(std::uint64_t v, std::uint64_t modulus) : v_(v % check(modulus)), q_(modulus) {}

  [[nodiscard]] std::uint64_t value() const noexcept { return v_; }
  [[nodiscard]] std::uint64_t modulus() const noexcept { return q_; }
  [[nodiscard]] bool valid() const noexcept { return q_ != 0; }

  friend Zq operator+(const Zq& a, const Zq& b) {
    match(a, b);
    const std::uint64_t s = a.v_ + b.v_;
    return Zq::raw(s >= a.q_ ? s - a.q_ : s, a.q_);
  }
  friend Zq operator-(const Zq& a, const Zq& b) {
    match(a, b);
    return Zq::raw(a.v_ >= b.v_ ? a.v_ - b.v_ : a.v_ + a.q_ - b.v_, a.q_);
  }
  friend Zq operator*(const Zq& a, const Zq& b) {
    match(a, b);
    return Zq::raw(mulmod(a.v_, b.v_, a.q_), a.q_);
  }
  Zq operator-() const { return Zq::raw(v_ == 0 ? 0 : q_ - v_, q_); }

  Zq& operator+=(const Zq& b) { return *this = *this + b; }
  Zq& operator-=(const Zq& b) { return *this = *this - b; }
  Zq& operator*=(const Zq& b) { return *this = *this * b; }

  friend bool operator==(const Zq& a, const Zq& b) noexcept {
    return a.q_ == b.q_ && a.v_ == b.v_;
  }
  friend bool operator!=(const Zq& a, const Zq& b) noexcept { return !(a == b); }

  [[nodiscard]] Zq pow(std::uint64_t exp) const { return Zq::raw(powmod(v_, exp, q_), q_); }
  [[nodiscard]] Zq inverse() const {
    if (v_ == 0) throw UsageError("Zq::inverse: zero");
    return Zq::raw(invmod(v_, q_), q_);
  }

  [[nodiscard]] static Zq sample(HmacDrbg& drbg, std::uint64_t modulus) {
    return Zq{drbg.below(check(modulus)), modulus};
  }

  /// Element with value `v` modulo this element's modulus.
  [[nodiscard]] Zq with_same_modulus(std::uint64_t v) const { return Zq{v, q_}; }

  /// Uniform element modulo this element's modulus.
  [[nodiscard]] Zq sample_same(HmacDrbg& drbg) const { return sample(drbg, q_); }

 private:
  static Zq raw(std::uint64_t v, std::uint64_t q) {
    Zq e;
    e.v_ = v;
    e.q_ = q;
    return e;
  }
  static std::uint64_t check(std::uint64_t modulus) {
    if (modulus < 2 || modulus > (std::uint64_t{1} << 63))
      throw UsageError("Zq: modulus out of range");
    return modulus;
  }
  static void match(const Zq& a, const Zq& b) {
    if (a.q_ != b.q_ || a.q_ == 0) throw UsageError("Zq: modulus mismatch");
  }

  std::uint64_t v_ = 0;
  std::uint64_t q_ = 0;
};

}  // namespace simulcast::crypto
