// Θ realized as an actual honest-majority protocol (no trusted party):
// the MPC instantiation Claim 6.5 appeals to, at the message level.
//
// Observation that removes every multiplication gate from g: the outputs
// w_i = x_i for i outside L are *public* outputs, so y = XOR_{i not in L} x_i
// can be computed locally after those x_i are reconstructed; and the coin r
// only needs to be unpredictable-at-commit-time, so r = parity(sum of
// per-party shared random values rho_i) works - the sum is linear.  What
// remains is verifiable sharing, robust reconstruction, and NOT revealing
// x_l1, x_l2 when |L| = 2.  Concretely (4 rounds, t < n/2):
//
//   round 0  every party broadcasts its auxiliary bit b_i in the clear
//            (b is not private in g's functionality: Theta's output shape
//            depends on L, which corrupted parties pick anyway), and deals
//            TWO Pedersen-VSS sharings: its input x_i and a random rho_i.
//   round 1  complaints (bitmask; a complaint covers both sharings).
//   round 2  public justifications; unjustified dealer => disqualified.
//   round 3  reveal: every party broadcasts its verified shares of every
//            qualified dealer's rho, and of x_d only for dealers d whose x
//            is actually output (d not in L when |L| = 2).
//   output   per Theta's g: with |L| = 2 and l1 < l2,
//            w_l1 = r, w_l2 = r XOR y; otherwise w = reconstructed x.
//
// The announced-vector distribution matches the ideal functionality
// (protocols/theta.h) execution for execution - the ablation measured in
// bench_e4 - because r is uniform whenever one honest rho is, and all
// committed values are fixed before any reveal.
//
// Rounds 0-3 are the commit-complain-justify-reveal skeleton of the VSS
// protocols, and the receiving side is theirs (protocols/vss_core.h): two
// ShareLedgers per dealer (x and rho) and one ComplaintBook.  This file
// keeps Θ-MPC's own tags, twin-share codecs, round checks and DRBG draws.
#pragma once

#include "crypto/vss.h"
#include "sim/protocol.h"

namespace simulcast::protocols {

inline const sim::Tag kTmpcBitTag{"tmpc-b"};
inline const sim::Tag kTmpcCommitTag{"tmpc-commit"};    // payload: x-vec || rho-vec
inline const sim::Tag kTmpcShareTag{"tmpc-share"};      // payload: x-share || rho-share
inline const sim::Tag kTmpcComplainTag{"tmpc-complain"};
inline const sim::Tag kTmpcJustifyTag{"tmpc-justify"};
inline const sim::Tag kTmpcRevealTag{"tmpc-reveal"};    // dealer, kind, share

/// Π_G over the real-MPC Θ.  Honest parties run with b = 0; the A*
/// adversary runs the same machine with b = 1 on two corrupted parties
/// (adversary::theta_mpc_parity_factory).
class ThetaMpcProtocol final : public sim::ParallelBroadcastProtocol {
 public:
  [[nodiscard]] std::string name() const override { return "flawed-pi-g-mpc"; }
  [[nodiscard]] std::size_t rounds(std::size_t /*n*/) const override { return 4; }
  [[nodiscard]] std::size_t max_corruptions(std::size_t n) const override { return (n - 1) / 2; }
  [[nodiscard]] std::unique_ptr<sim::Party> make_party(
      sim::PartyId id, bool input, const sim::ProtocolParams& params) const override;

  /// The A* hook: an honest-code machine whose auxiliary bit is forced to
  /// `lit` (Claim 6.6's controlled misbehaviour).
  [[nodiscard]] std::unique_ptr<sim::Party> make_attack_party(sim::PartyId id, bool input,
                                                              bool lit,
                                                              const sim::ProtocolParams& params) const;
};

}  // namespace simulcast::protocols
