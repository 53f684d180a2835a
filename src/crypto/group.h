// Schnorr group: the order-q subgroup of quadratic residues of Z_p^* for a
// safe prime p = 2q + 1.
//
// The paper's feasibility results (Claims 5.1, 5.3, Corollary 5.5) assume
// enhanced trapdoor permutations; we instantiate the commitments the
// protocols need on discrete-log-style assumptions in this group instead
// (see DESIGN.md "Substitutions").  The standard parameters use a 62-bit
// safe prime - simulation scale, checked prime at construction - so the
// group is only *statistically* meaningful for our experiments, not a
// production security level.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/field.h"
#include "crypto/hmac.h"
#include "crypto/modmath.h"

namespace simulcast::crypto {

/// Fixed-base windowed exponentiation: for a known base, precomputes
/// table[i][d] = base^(d * 256^i) mod p for the eight radix-256 digit
/// positions of a 64-bit exponent, so base^e costs at most seven modular
/// multiplications instead of the ~90 of square-and-multiply.  Entries are
/// held in the Montgomery domain of the modulus passed in, and every call
/// takes that context rather than pointing at it, so the owning
/// SchnorrGroup stays copyable.  8 x 256 x 8 B = 16 KiB per table; built
/// once per (base, p) in the SchnorrGroup constructor.
class FixedBaseTable {
 public:
  FixedBaseTable() = default;
  FixedBaseTable(std::uint64_t base, const Montgomery& mont);

  /// base^e in the Montgomery domain of `mont`, which must be the context
  /// the table was built with: mont.from(exp(e, mont)) == powmod(base, e, p).
  [[nodiscard]] std::uint64_t exp(std::uint64_t e, const Montgomery& mont) const noexcept;

 private:
  static constexpr std::size_t kWindows = 8;
  std::vector<std::array<std::uint64_t, 256>> table_;
};

/// Group description.  Elements are canonical representatives in [1, p).
/// Every operation below runs on one Montgomery context for p and returns
/// exactly the value the mulmod/powmod formula in its comment gives.
class SchnorrGroup {
 public:
  /// Constructs and validates: p, q prime, p = 2q + 1, p < 2^63 (the
  /// Montgomery bound), g a generator of the order-q subgroup.  Throws
  /// UsageError on invalid parameters.
  SchnorrGroup(std::uint64_t p, std::uint64_t q, std::uint64_t g);

  /// The library-wide default group (62-bit safe prime, g = 4) with a
  /// second generator h derived by hashing, so that log_g(h) is unknown
  /// ("nothing up my sleeve") - required by Pedersen commitments.
  [[nodiscard]] static const SchnorrGroup& standard();

  [[nodiscard]] std::uint64_t p() const noexcept { return p_; }
  [[nodiscard]] std::uint64_t q() const noexcept { return q_; }
  [[nodiscard]] std::uint64_t g() const noexcept { return g_; }
  [[nodiscard]] std::uint64_t h() const noexcept { return h_; }

  /// g^e mod p for an exponent in Zq.
  [[nodiscard]] std::uint64_t exp_g(const Zq& e) const;
  /// g^a h^b mod p: the product of both fixed-base powers with one
  /// conversion out.
  [[nodiscard]] std::uint64_t exp_gh(const Zq& a, const Zq& b) const;
  /// base^e mod p, i.e. powmod(base, e, p), for any 64-bit base.
  [[nodiscard]] std::uint64_t exp(std::uint64_t base, const Zq& e) const;
  /// prod_j c_j^(x^j) mod p by Horner's rule in the exponent,
  /// acc <- acc^x * c_j from the last coefficient down, starting at 1.
  /// Values c_j >= p are reduced mod p, as mulmod would.
  [[nodiscard]] std::uint64_t horner(std::span<const std::uint64_t> c, const Zq& x) const;
  /// a * b mod p, i.e. mulmod(a, b, p), for any 64-bit a and b.
  [[nodiscard]] std::uint64_t mul(std::uint64_t a, std::uint64_t b) const;

  /// True when `a` lies in the order-q subgroup, i.e. a != 0, a < p and
  /// a^q = 1 mod p.  Decided by the Jacobi symbol (a/p) == 1, which Euler's
  /// criterion makes the same boolean (see the definition).
  [[nodiscard]] bool is_element(std::uint64_t a) const;

  /// Uniform exponent in Zq.
  [[nodiscard]] Zq sample_exponent(HmacDrbg& drbg) const { return Zq::sample(drbg, q_); }

  /// Deterministically maps a label to a subgroup element by hashing and
  /// squaring (used to derive h and any extra generators).
  [[nodiscard]] std::uint64_t hash_to_group(std::string_view label) const;

 private:
  void check_exponent(const Zq& e) const;

  std::uint64_t p_;
  std::uint64_t q_;
  std::uint64_t g_;
  std::uint64_t h_ = 0;
  Montgomery mont_;
  FixedBaseTable g_table_;
  FixedBaseTable h_table_;
};

}  // namespace simulcast::crypto
