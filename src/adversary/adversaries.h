// Concrete adversaries.
//
// Each class is one attack strategy from the paper or from the classic
// folklore around it; experiments compose them with protocols and input
// distributions.  All of them are rushing (they exploit the scheduler's
// adversary-last ordering) and all are deterministic given the execution
// seed.  The ones that run honest protocol code - the passive baseline,
// the Θ-MPC parity attack and the share snooper - share one machine
// driver, PassiveAdversary.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>

#include "crypto/commitment.h"
#include "protocols/theta_mpc.h"
#include "protocols/vss_core.h"
#include "sim/adversary.h"
#include "sim/network.h"
#include "sim/protocol.h"

namespace simulcast::adversary {

/// The honest-machine driver: runs one protocol machine per corrupted
/// party - each with its own DRBG drawn from the adversary's and its own
/// context - feeds it the inbox that party would have received, and
/// forwards everything it sends.  Built from the protocol, it runs the
/// honest machines: the "semi-honest" baseline, under which every protocol
/// must look identical to an execution with no corruption at all.  The
/// attacks that run honest code (ThetaMpcParityAdversary,
/// ShareSnoopAdversary) are this driver with machines of their choosing.
class PassiveAdversary : public sim::Adversary {
 public:
  /// Builds the machine of corrupted party `id`, the j-th of the corrupted
  /// set, whose input is `input`.
  using MachineFactory =
      std::function<std::unique_ptr<sim::Party>(std::size_t j, sim::PartyId id, bool input)>;

  PassiveAdversary(const sim::ParallelBroadcastProtocol& protocol,
                   const sim::ProtocolParams& params);
  explicit PassiveAdversary(MachineFactory make_machine)
      : make_machine_(std::move(make_machine)) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override;
  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override;

 protected:
  /// The machine of the j-th corrupted party (after setup).
  [[nodiscard]] sim::Party& machine(std::size_t j) { return *machines_[j]; }

 private:
  MachineFactory make_machine_;
  std::vector<sim::PartyId> corrupted_;
  std::vector<std::unique_ptr<sim::Party>> machines_;
  std::deque<crypto::HmacDrbg> drbgs_;
  std::deque<sim::PartyContext> contexts_;
};

/// Sends nothing at all (crash-from-start).  Corrupted coordinates must
/// degrade to the announced default 0 in every protocol.
class SilentAdversary final : public sim::Adversary {
 public:
  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override;
  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override;
};

/// The copy attack of Section 3.2 against SeqBroadcastProtocol: the
/// highest-id corrupted party discards its input and re-broadcasts the bit
/// the honest `victim` announced in an earlier round.  Other corrupted
/// parties announce their inputs honestly.
class CopyLastAdversary final : public sim::Adversary {
 public:
  explicit CopyLastAdversary(sim::PartyId victim) : victim_(victim) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override;
  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override;

 private:
  sim::PartyId victim_;
  std::vector<sim::PartyId> corrupted_;
  BitVec inputs_;
  sim::PartyId copier_ = 0;
  std::optional<bool> victim_bit_;
};

/// The adversary A* of Claim 6.6 against FlawedPiGProtocol: its two
/// corrupted parties set the auxiliary bit b = 1 (submitting their true
/// inputs), which drives Θ into the leaky branch and forces the XOR of all
/// announced bits to 0.  Requires exactly >= 2 corrupted parties; extras
/// behave honestly (b = 0).
class ParityAdversary final : public sim::Adversary {
 public:
  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override;
  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override;

 private:
  std::vector<sim::PartyId> corrupted_;
  BitVec inputs_;
};

/// Selective abort against NaiveCommitRevealProtocol: the first corrupted
/// party commits to bit 1 honestly, then - rushing on the honest round-1
/// openings - reveals only when honest `victim` revealed 1.  Its announced
/// value therefore always equals the victim's announced bit, a correlation
/// that violates both G- and CR-independence.  Remaining corrupted parties
/// run the protocol honestly on their inputs.
class SelectiveAbortAdversary final : public sim::Adversary {
 public:
  SelectiveAbortAdversary(sim::PartyId victim, const crypto::CommitmentScheme& scheme)
      : victim_(victim), scheme_(&scheme) {}

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override;
  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override;

 private:
  sim::PartyId victim_;
  const crypto::CommitmentScheme* scheme_;
  std::vector<sim::PartyId> corrupted_;
  BitVec inputs_;
  crypto::HmacDrbg* drbg_ = nullptr;
  std::map<sim::PartyId, crypto::Opening> openings_;
};

/// The share-snooping attack of experiment E12, validating the model's
/// private-channel choice: against the *sequential-deal* CGMA protocol with
/// channels configured public (private_channels = false), the adversary
/// reads the honest victim dealer's shares off the wire in the victim's
/// deal round, reconstructs the victim's input bit, and has its first
/// corrupted dealer - who deals later in the sequential schedule - commit
/// to a copy.  Every corrupted machine is the honest VssProtocolParty run
/// by the PassiveAdversary driver, so the copy is indistinguishable from an
/// honest deal.  With private channels the same adversary sees too few
/// shares and its copier deals 0.
class ShareSnoopAdversary final : public PassiveAdversary {
 public:
  /// `victim` must deal strictly before every corrupted party.
  ShareSnoopAdversary(sim::PartyId victim, protocols::VssSchedule schedule);

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override;
  void on_round(sim::Round round, const sim::AdversaryView& view,
                sim::AdversarySender& sender) override;

 private:
  sim::PartyId victim_;
  protocols::VssSchedule schedule_;
  std::vector<crypto::PedersenShare> snooped_;
  std::optional<bool> stolen_bit_;
};

/// A* against the real-MPC Θ backend (protocols/theta_mpc.h): the
/// PassiveAdversary driver whose first two machines run with the auxiliary
/// bit forced to 1; the rest run honestly.  Message-level twin of
/// ParityAdversary.  Requires >= 2 corrupted parties.
class ThetaMpcParityAdversary final : public PassiveAdversary {
 public:
  ThetaMpcParityAdversary(const protocols::ThetaMpcProtocol& protocol,
                          const sim::ProtocolParams& params);

  void setup(const sim::CorruptionInfo& info, crypto::HmacDrbg& drbg) override;
};

/// Wraps any adversary factory into the std::function shape the testers
/// consume.
using AdversaryFactory = std::function<std::unique_ptr<sim::Adversary>()>;

/// Factory helpers.
[[nodiscard]] AdversaryFactory passive_factory(const sim::ParallelBroadcastProtocol& protocol,
                                               const sim::ProtocolParams& params);
[[nodiscard]] AdversaryFactory silent_factory();
[[nodiscard]] AdversaryFactory copy_last_factory(sim::PartyId victim);
[[nodiscard]] AdversaryFactory parity_factory();
[[nodiscard]] AdversaryFactory selective_abort_factory(sim::PartyId victim,
                                                       const crypto::CommitmentScheme& scheme);
[[nodiscard]] AdversaryFactory theta_mpc_parity_factory(
    const protocols::ThetaMpcProtocol& protocol, const sim::ProtocolParams& params);
[[nodiscard]] AdversaryFactory share_snoop_factory(sim::PartyId victim,
                                                   protocols::VssSchedule schedule);

}  // namespace simulcast::adversary
