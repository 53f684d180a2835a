// Shared machinery of the VSS-based simultaneous-broadcast protocols.
//
// CGMA [7], Chor-Rabin [8] and Gennaro [12] all follow the same robust
// commit-then-reveal skeleton; what differs is the *scheduling* of the
// commit phase, which is precisely where their round complexities (linear,
// logarithmic, constant) come from:
//
//   deal      every party Pedersen-VSS-shares its input bit (degree t,
//             t < n/2): commitments on the broadcast channel, shares on
//             private channels.  Perfect hiding means nothing about the bit
//             leaks; any t+1 verifying shares pin the bit down, so the
//             announced value of every party - including corrupted ones -
//             is fixed and *recoverable by the honest majority* at the end
//             of the commit phase.  This is what defeats selective-abort
//             correlation attacks (contrast protocols/naive_commit_reveal.h).
//   (PoK)     Chor-Rabin only: each dealer proves knowledge of its
//             committed secret with an interactive sigma protocol, batched
//             into ceil(log2 n) groups of three rounds - the paper's
//             logarithmic schedule.  Dealers that fail are disqualified
//             before anything is revealed, so commitment copying/mauling is
//             neutralized during the commit phase.
//   complain  every party broadcasts a bitmask of dealers whose shares were
//             missing or invalid.
//   justify   an accused dealer publicly broadcasts the complained shares;
//             failure to justify disqualifies the dealer (announced 0, per
//             the paper's footnote-2 default), decided before any reveal.
//   reveal    every party broadcasts its (verifying) shares of every
//             qualified dealer; reconstruction needs t+1 of them and the
//             honest parties alone supply n - t >= t+1.
//
// The receiving side is two types: a ShareLedger per sharing (the
// dealer's commitments, my share, the verifying public shares and the
// reconstruction from them) and one ComplaintBook (complaints, their
// justifications and each dealer's disqualification).  VssProtocolParty
// implements the whole skeleton once on them, driven by a VssSchedule;
// the three protocol classes in cgma.h / chor_rabin.h / gennaro.h only
// build schedules.  The Θ-MPC backend (theta_mpc.h) runs the same receiver
// with two ledgers per dealer, under its own tags, codecs and rounds.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "crypto/sigma.h"
#include "crypto/vss.h"
#include "sim/protocol.h"

namespace simulcast::protocols {

/// Message tags of the VSS skeleton (payload formats in vss_core.cpp).
inline const sim::Tag kVssCommitTag{"vss-commit"};
inline const sim::Tag kVssShareTag{"vss-share"};
inline const sim::Tag kVssComplainTag{"vss-complain"};
inline const sim::Tag kVssJustifyTag{"vss-justify"};
inline const sim::Tag kVssRevealTag{"vss-reveal"};
inline const sim::Tag kPokCommitTag{"pok-a"};
inline const sim::Tag kPokChallengeTag{"pok-chal"};
inline const sim::Tag kPokResponseTag{"pok-resp"};

/// Rounds of one sigma-protocol batch (A, joint challenge, response).
struct PokRounds {
  sim::Round commit = 0;
  sim::Round challenge = 0;
  sim::Round response = 0;
};

/// The full round schedule of a VSS-skeleton protocol.
struct VssSchedule {
  std::size_t n = 0;
  std::size_t threshold = 0;            ///< polynomial degree = corruption bound t
  std::vector<sim::Round> deal_round;   ///< deal_round[d] for dealer d
  std::optional<std::vector<PokRounds>> pok;  ///< per-dealer PoK rounds (Chor-Rabin)
  sim::Round complaint_round = 0;
  sim::Round justify_round = 0;
  sim::Round reconstruct_round = 0;
  std::size_t total_rounds = 0;

  /// Validates internal consistency (ordering, sizes); throws UsageError.
  void validate() const;
};

/// The receiving side of one Pedersen sharing, as a party keeps it for one
/// dealer: the dealer's commitments, my share, and the shares made public
/// (justified or revealed) that verify, at most one per evaluation point.
/// The commitments and my share are first-wins; which messages reach the
/// ledger (tags, codecs, round checks) is the protocol's business.
class ShareLedger {
 public:
  [[nodiscard]] bool has_commitments() const noexcept { return commitments_.has_value(); }
  [[nodiscard]] const std::vector<std::uint64_t>& commitments() const { return *commitments_; }
  /// Stores the dealer's commitments unless some are stored already.
  void set_commitments(std::vector<std::uint64_t> commitments);

  [[nodiscard]] const crypto::PedersenShare& my_share() const { return *my_share_; }
  /// Stores my share unless one is stored already.  It is not checked here:
  /// it may arrive before the commitments, and is verified where it is used.
  void set_my_share(const crypto::PedersenShare& share);

  /// Whether `share` verifies against the commitments (false without them).
  [[nodiscard]] bool verifies(const crypto::PedersenShare& share) const;
  /// Whether my share is stored and verifies.
  [[nodiscard]] bool my_share_verifies() const { return my_share_ && verifies(*my_share_); }

  /// Makes `share` public if it verifies and no share at its point is.
  void publish(const crypto::PedersenShare& share);

  /// The secret from t+1 verifying shares: the public ones first, then my
  /// own; nullopt when fewer than t+1 are at hand.
  [[nodiscard]] std::optional<crypto::Zq> reconstruct(std::size_t threshold) const;

 private:
  [[nodiscard]] bool is_public(std::uint64_t point) const;

  std::optional<std::vector<std::uint64_t>> commitments_;
  std::optional<crypto::PedersenShare> my_share_;
  std::vector<crypto::PedersenShare> public_;
};

/// The complaint phase, one page per dealer: which parties complained about
/// the dealer, which of those complaints it answered with a verifying
/// public share, and whether it is disqualified.  Disqualification is
/// decided once, at the start of the reveal round: a dealer that did not
/// deal (no commitments; in Chor-Rabin, no valid PoK) or left a complaint
/// unanswered is out and announced 0.  Party ids index the pages and the
/// complaint masks, so n <= 64 as on the wire.
class ComplaintBook {
 public:
  explicit ComplaintBook(std::size_t n = 0) : pages_(n) {}

  /// Files `complainer`'s complaint mask: bit d accuses dealer d.
  void file(sim::PartyId complainer, std::uint64_t mask) noexcept;
  [[nodiscard]] bool filed(sim::PartyId dealer, sim::PartyId complainer) const noexcept;
  /// Marks `complainer`'s complaint against `dealer` answered.
  void justify(sim::PartyId dealer, sim::PartyId complainer) noexcept;

  void decide(sim::PartyId dealer, bool dealt) noexcept;
  [[nodiscard]] bool disqualified(sim::PartyId dealer) const noexcept {
    return pages_[dealer].disqualified;
  }

 private:
  struct Page {
    std::uint64_t filed = 0;      ///< bit c: party c complained
    std::uint64_t justified = 0;  ///< bit c: the dealer answered party c
    bool disqualified = false;
  };
  std::vector<Page> pages_;
};

/// The honest machine. Exposed (rather than hidden in a .cpp) so that
/// adversaries built from honest machines can parameterize them.
class VssProtocolParty final : public sim::Party {
 public:
  VssProtocolParty(VssSchedule schedule, bool input);

  /// Replaces the input bit; only meaningful before this party's deal
  /// round.  Honest parties never call this - it exists for adaptive
  /// adversaries (e.g. the share-snooping attack of experiment E12) that
  /// drive an honest machine with a late-chosen input.
  void set_input(bool input) noexcept { input_ = input; }

  void begin(sim::PartyContext& ctx) override;
  void on_round(sim::Round round, const sim::Inbox& inbox,
                sim::PartyContext& ctx) override;
  void finish(const sim::Inbox& inbox, sim::PartyContext& ctx) override;
  [[nodiscard]] BitVec output() const override;

 private:
  /// Per dealer: its sharing and, in Chor-Rabin, its PoK transcript.
  struct Dealer {
    ShareLedger shares;
    std::optional<std::uint64_t> pok_a;
    std::optional<crypto::SigmaResponse> pok_response;
  };

  void record(const sim::Inbox& inbox);
  void deal(sim::PartyContext& ctx);
  [[nodiscard]] crypto::Zq joint_challenge(sim::Round challenge_round) const;
  /// Whether dealer d dealt: its commitments are in and, in Chor-Rabin,
  /// its PoK verifies.
  [[nodiscard]] bool dealt(std::size_t d) const;

  VssSchedule schedule_;
  bool input_;
  const crypto::SchnorrGroup* group_ = nullptr;
  crypto::PedersenVss vss_;
  sim::PartyId me_ = 0;

  // My own deal (needed for PoK responses and my justifications).
  std::optional<crypto::PedersenDeal> my_deal_;
  std::optional<crypto::SigmaCommitment> my_pok_;

  std::vector<Dealer> dealers_;
  ComplaintBook complaints_;
  /// Challenge contributions seen, keyed by the round they were sent in.
  std::map<sim::Round, std::map<sim::PartyId, std::uint64_t>> challenge_contributions_;
  /// My own contributions per challenge round (broadcasts are not
  /// self-delivered).
  std::map<sim::Round, std::uint64_t> my_contributions_;
  bool decided_ = false;
  BitVec result_;
};

/// Convenience: the corruption bound used by all VSS protocols.
[[nodiscard]] constexpr std::size_t vss_threshold(std::size_t n) noexcept {
  return (n - 1) / 2;
}

}  // namespace simulcast::protocols
