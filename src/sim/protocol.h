// The protocol factory interface: what a parallel-broadcast protocol must
// provide so that the scheduler, the testers and the benchmarks can run it
// generically.
#pragma once

#include <memory>
#include <string>

#include "crypto/commitment.h"
#include "sim/functionality.h"
#include "sim/party.h"

namespace simulcast::sim {

/// Static parameters shared by every machine of one execution.
struct ProtocolParams {
  std::size_t n = 0;  ///< number of parties
  /// Commitment backend; null for protocols that do not commit.
  const crypto::CommitmentScheme* commitments = nullptr;
};

/// A protocol that implements parallel broadcast (Definition 3.1): fixed
/// round count, one Party machine per honest participant, and optionally a
/// trusted functionality.
class ParallelBroadcastProtocol {
 public:
  virtual ~ParallelBroadcastProtocol() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of rounds for an n-party execution (fixed; the scheduler runs
  /// exactly this many).
  [[nodiscard]] virtual std::size_t rounds(std::size_t n) const = 0;

  /// Largest corruption count the protocol tolerates.
  [[nodiscard]] virtual std::size_t max_corruptions(std::size_t n) const { return n - 1; }

  /// Creates the honest machine for party `id` with input bit `input`.
  [[nodiscard]] virtual std::unique_ptr<Party> make_party(PartyId id, bool input,
                                                          const ProtocolParams& params) const = 0;

  /// Creates the trusted functionality, if the protocol uses one.
  [[nodiscard]] virtual std::unique_ptr<TrustedFunctionality> make_functionality(
      const ProtocolParams& /*params*/) const {
    return nullptr;
  }
};

}  // namespace simulcast::sim
