// Protocol registry: name -> protocol instance.
//
// The benches, examples and tests address protocols by the short names
// below; this is the single place where the catalogue lives.
//
//   seq-broadcast        n sequential single-sender broadcasts (Section 3.2
//                        baseline; parallel but NOT simultaneous)
//   cgma                 VSS commit-reveal, sequential deals, n+3 rounds [7]
//   chor-rabin           VSS + batched PoK, 4 + 3*ceil(log2 n) rounds [8]
//   gennaro              VSS commit-reveal, parallel deals, 4 rounds [12]
//   naive-commit-reveal  plain commitments, 2 rounds (selective-abort prone)
//   flawed-pi-g          the Lemma 6.4 protocol over the ideal Θ
//   flawed-pi-g-mpc      the same protocol over the honest-majority MPC Θ
//   seq-broadcast-ds     seq-broadcast with the broadcast channel built from
//                        point-to-point links and Dolev-Strong
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/protocol.h"

namespace simulcast::core {

/// Instantiates a protocol by name; throws UsageError on an unknown name.
[[nodiscard]] std::unique_ptr<sim::ParallelBroadcastProtocol> make_protocol(
    std::string_view name);

/// All registered names, in catalogue order.
[[nodiscard]] std::vector<std::string> protocol_names();

/// The names of the protocols that actually implement *simultaneous*
/// broadcast (used by sweeps that should exclude the negative controls).
[[nodiscard]] std::vector<std::string> simultaneous_protocol_names();

}  // namespace simulcast::core
