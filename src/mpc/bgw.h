// BGW-style honest-majority multi-party computation over GF(2^61 - 1).
//
// Claim 6.5 of the paper asserts that the subprotocol Θ "can be built using
// known techniques (cf. [2, 14, 6]) as long as t < n/2" - i.e. generic
// secret-sharing MPC.  This module supplies that substrate: Shamir-shared
// values with linear operations for free, multiplication by degree
// reduction (resharing + Lagrange recombination, the BGW protocol in its
// semi-honest form), bit operations (XOR/AND/NOT on 0/1-valued shares) and
// opening.
//
// BgwEngine models the n parties' share vectors directly (a "lock-step"
// execution of the arithmetic phase); the message-level, adversary-exposed
// instantiation of Θ lives in protocols/theta_mpc.h and uses Pedersen VSS
// for the dealing phase, with no multiplication gates, so it does not use
// this engine.  Only tests/mpc exercises it: any arithmetic circuit over
// the field can be evaluated on shares, which is the [2]-style
// completeness the paper cites.  No product binary links it.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/field.h"
#include "crypto/hmac.h"
#include "crypto/shamir.h"

namespace simulcast::mpc {

/// A value shared among the engine's n parties (one share each).
struct SharedValue {
  std::vector<crypto::Fp61> shares;  ///< shares[i] held by party i (point i+1)
};

class BgwEngine {
 public:
  /// n parties, polynomials of degree `threshold`, threshold < n/2 so that
  /// multiplication's degree-2t intermediate is still interpolatable.
  BgwEngine(std::size_t n, std::size_t threshold, std::uint64_t seed);

  [[nodiscard]] std::size_t parties() const noexcept { return n_; }
  [[nodiscard]] std::size_t threshold() const noexcept { return t_; }

  /// Party `dealer` shares its input.
  [[nodiscard]] SharedValue share(crypto::Fp61 secret);

  /// Linear operations: local, no interaction.
  [[nodiscard]] SharedValue add(const SharedValue& a, const SharedValue& b) const;
  [[nodiscard]] SharedValue sub(const SharedValue& a, const SharedValue& b) const;
  [[nodiscard]] SharedValue scale(const SharedValue& a, crypto::Fp61 constant) const;
  [[nodiscard]] SharedValue add_constant(const SharedValue& a, crypto::Fp61 constant) const;

  /// BGW multiplication: each party locally multiplies its shares (degree
  /// 2t), reshares the product with a fresh degree-t polynomial, and the
  /// engine recombines with the degree-2t Lagrange weights at zero.  One
  /// simulated communication round.
  [[nodiscard]] SharedValue mul(const SharedValue& a, const SharedValue& b);

  /// Bit operations on 0/1-valued shares.
  [[nodiscard]] SharedValue bit_xor(const SharedValue& a, const SharedValue& b);  // a+b-2ab
  [[nodiscard]] SharedValue bit_and(const SharedValue& a, const SharedValue& b);  // ab
  [[nodiscard]] SharedValue bit_not(const SharedValue& a) const;                  // 1-a

  /// Reconstructs the secret from the first threshold+1 shares.
  [[nodiscard]] crypto::Fp61 open(const SharedValue& value) const;

  /// Reconstructs using an arbitrary (threshold+1)-subset of party indices;
  /// all subsets must agree for a consistent sharing (tested property).
  [[nodiscard]] crypto::Fp61 open_with(const SharedValue& value,
                                       const std::vector<std::size_t>& party_subset) const;

  /// Number of simulated communication rounds consumed so far (one per
  /// multiplication layer; the caller batches independent muls itself).
  [[nodiscard]] std::size_t rounds_used() const noexcept { return rounds_; }

 private:
  void check(const SharedValue& v) const;

  std::size_t n_;
  std::size_t t_;
  crypto::HmacDrbg drbg_;
  std::size_t rounds_ = 0;
};

}  // namespace simulcast::mpc
