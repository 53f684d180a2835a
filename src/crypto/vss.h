// Verifiable secret sharing over the Schnorr group.
//
// The VSS-based simultaneous-broadcast protocols (protocols/vss_core.h:
// CGMA, Chor-Rabin, Gennaro) and the Theta-MPC backend
// (protocols/theta_mpc.h) follow the structure of [7]: every party
// *verifiably* shares its input before anyone reveals anything, so by the
// time reveals start, all inputs - including corrupted parties' - are
// fixed and extractable by the honest majority.  They all deal with
// PedersenVss: the dealer shares s with a degree-t polynomial f over Zq
// and a blinding polynomial f', and broadcasts the coefficient commitments
// C_j = g^{f_j} h^{f'_j}; the share for party i is (f(i+1), f'(i+1)),
// publicly checkable against the C_j.  The commitments are perfectly
// hiding (not even g^s leaks), so a one-bit secret can be dealt as it is.
// The deal keeps f'(0), the opening of C_0 that Chor-Rabin's proof of
// knowledge needs.  The receiving side - share checks, public shares,
// reconstruction - is protocols/vss_core.h's ShareLedger, for all four.
//
// FeldmanVss, the unblinded variant (A_j = g^{f_j}, which leaks g^s), and
// its codecs are still here with their tests, but no protocol deals with
// them and no product binary links them.  This file only provides the VSS
// mechanics and their wire codecs.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/field.h"
#include "crypto/group.h"
#include "crypto/shamir.h"

namespace simulcast::crypto {

/// The dealer's public message: coefficient commitments A_j = g^{f_j}.
struct FeldmanCommitments {
  std::vector<std::uint64_t> coefficients;  ///< group elements, degree+1 of them
};

/// One dealt instance: public commitments plus the private shares
/// (shares[i] goes to party i over a private channel).
struct FeldmanDeal {
  FeldmanCommitments commitments;
  std::vector<Share<Zq>> shares;
};

class FeldmanVss {
 public:
  explicit FeldmanVss(const SchnorrGroup& group) : group_(&group) {}
  FeldmanVss() : group_(&SchnorrGroup::standard()) {}

  [[nodiscard]] const SchnorrGroup& group() const noexcept { return *group_; }

  /// Deals a (threshold, n) verifiable sharing of `secret` in Zq.
  [[nodiscard]] FeldmanDeal deal(const Zq& secret, std::size_t threshold, std::size_t n,
                                 HmacDrbg& drbg) const;

  /// Verifies share (x, y) against the commitments:
  /// g^y == prod_j A_j^{x^j}.
  [[nodiscard]] bool verify_share(const FeldmanCommitments& commitments,
                                  const Share<Zq>& share) const;

  /// Checks the well-formedness of a commitment vector (every element in
  /// the subgroup, expected length).
  [[nodiscard]] bool verify_commitments(const FeldmanCommitments& commitments,
                                        std::size_t threshold) const;

  /// Reconstructs the secret from verified shares (needs >= threshold+1).
  [[nodiscard]] Zq reconstruct(const std::vector<Share<Zq>>& shares) const;

  /// The public value g^secret implied by the commitments (A_0).  Exposed
  /// because reveal phases can check a claimed secret against it.
  [[nodiscard]] std::uint64_t committed_public_value(const FeldmanCommitments& c) const;

 private:
  const SchnorrGroup* group_;
};

/// Pedersen VSS: like Feldman, but the coefficient commitments are
/// C_j = g^{f_j} h^{f'_j} for a second blinding polynomial f', which makes
/// the sharing *perfectly hiding* - nothing about the secret (not even
/// g^secret) leaks from the public commitments.  This is what the
/// simultaneous-broadcast protocols use to commit to one-bit inputs: the
/// commit phase fixes every party's bit recoverably (any t+1 verifying
/// shares reconstruct it) without leaking it.
struct PedersenShare {
  std::uint64_t x = 0;  ///< evaluation point
  Zq value;             ///< f(x)
  Zq blinding;          ///< f'(x)
};

struct PedersenDeal {
  std::vector<std::uint64_t> commitments;  ///< C_j = g^{f_j} h^{f'_j}
  std::vector<PedersenShare> shares;       ///< shares[i] for party i
  Zq blinding;                             ///< f'(0), the opening of C_0 with the secret
};

class PedersenVss {
 public:
  explicit PedersenVss(const SchnorrGroup& group) : group_(&group) {}
  PedersenVss() : group_(&SchnorrGroup::standard()) {}

  [[nodiscard]] const SchnorrGroup& group() const noexcept { return *group_; }

  /// Deals a (threshold, n) Pedersen sharing of `secret`.
  [[nodiscard]] PedersenDeal deal(const Zq& secret, std::size_t threshold, std::size_t n,
                                  HmacDrbg& drbg) const;

  /// Verifies g^{value} h^{blinding} == prod_j C_j^{x^j}.
  [[nodiscard]] bool verify_share(const std::vector<std::uint64_t>& commitments,
                                  const PedersenShare& share) const;

  /// Checks commitment-vector well-formedness.
  [[nodiscard]] bool verify_commitments(const std::vector<std::uint64_t>& commitments,
                                        std::size_t threshold) const;

  /// Reconstructs the secret from >= threshold+1 verifying shares.
  [[nodiscard]] Zq reconstruct(const std::vector<PedersenShare>& shares) const;

 private:
  const SchnorrGroup* group_;
};

/// Wire encoding helpers (used by protocol messages).
[[nodiscard]] Bytes encode_feldman_commitments(const FeldmanCommitments& c);
[[nodiscard]] FeldmanCommitments decode_feldman_commitments(const Bytes& data);
[[nodiscard]] Bytes encode_share(const Share<Zq>& s);
[[nodiscard]] Share<Zq> decode_share(const Bytes& data, std::uint64_t q);
[[nodiscard]] Bytes encode_group_elements(const std::vector<std::uint64_t>& elements);
[[nodiscard]] std::vector<std::uint64_t> decode_group_elements(ByteSpan data);
[[nodiscard]] Bytes encode_pedersen_share(const PedersenShare& s);
[[nodiscard]] PedersenShare decode_pedersen_share(ByteSpan data, std::uint64_t q);

}  // namespace simulcast::crypto
