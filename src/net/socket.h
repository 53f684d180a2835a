// SocketTransport: the loopback TCP backend of the transport seam.
//
// open() builds one loopback TCP channel per destination endpoint — one
// per party, one for the broadcast channel, one for the trusted
// functionality — by binding an ephemeral 127.0.0.1 listener, connecting,
// and accepting (n + 2 real kernel connections per execution).  Each end
// of a channel is a net::Link (net/link.h): submit() hands the sending
// Link one record
//
//   u64 seq | u64 slot | <wire frame (net/wire.h)>
//
// and collect(slot) waits on every Link (net::wait_links) until each
// frame submitted for `slot` has been delivered, then returns the
// messages ordered by submission sequence number.  The reorder-by-seq
// step is what keeps party outputs and verdicts identical to the
// in-process backend (DESIGN.md section 11): the kernel may interleave
// channels arbitrarily, but delivery order never depends on it.
// Wall-clock timing, and only wall-clock timing, differs.
//
// The transport is single-threaded and owned by one execution, so
// concurrent exec::Runner workers each wait on their own Links with no
// shared state (TSan-clean by construction).  Sockets are closed with SO_LINGER
// abort semantics: a campaign runs tens of thousands of executions, and
// letting each connection linger in TIME_WAIT would exhaust loopback
// ephemeral ports within minutes.
//
// Chaos (a constructor argument): both Links of each targeted channel
// switch to reliable records, the sending one drawing its fates from a
// "wire-chaos:socket:<index>" DRBG.  Recovery is the Link's — go-back-N,
// cumulative acks riding back on the same connection, the RTO — and the
// wait sleeps until the next Link timer rather than spinning.  A
// channel whose Link spends its retransmit budget fails the execution at
// that RTO with a ProtocolError naming the exhaustion: on this backend
// degradation is an execution failure, not a party crash (that contract
// belongs to the process transport).
//
// Failure modes: syscall failures throw std::system_error (which
// exec::Runner's retry policy treats as transient — correct for transient
// port/fd pressure); malformed bytes on a channel throw ProtocolError; a
// flush that stops making progress for the stall timeout throws
// ProtocolError rather than hanging the campaign.
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/chaos.h"
#include "net/link.h"
#include "net/transport.h"

namespace simulcast::net {

/// A connected loopback TCP pair {connecting end, accepted end} with
/// TCP_NODELAY on both, built through an ephemeral 127.0.0.1 listener.
/// Throws std::system_error.
[[nodiscard]] std::pair<int, int> loopback_tcp_pair();

class SocketTransport final : public Transport {
 public:
  /// `stall_timeout` bounds how long collect() may go without progress;
  /// `chaos` (inert by default) disturbs the channels it targets, its
  /// DRBGs forked from `seed`.
  explicit SocketTransport(std::chrono::milliseconds stall_timeout = kDefaultNetTimeout,
                           const ChaosSpec& chaos = {}, std::uint64_t seed = 0);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] TransportKind kind() const noexcept override {
    return TransportKind::kSocket;
  }

  void open(std::size_t n, std::size_t slots) override;
  void submit(sim::Message m, std::size_t slot) override;
  [[nodiscard]] std::vector<sim::Message> collect(std::size_t slot) override;
  void close() override;

  /// This execution's chaos accounting, summed over every Link.
  [[nodiscard]] ChaosStats chaos_stats() const;

 private:
  /// A frame parked until its slot is collected, keyed for the
  /// deterministic reorder.
  struct Parked {
    std::uint64_t seq = 0;
    sim::Message message;
  };

  [[nodiscard]] std::size_t channel_for(sim::PartyId to) const;
  /// Parks every record the Links delivered.  Throws when a channel
  /// closed or spent its budget while `slot` was being collected.
  void take_delivered(std::size_t slot);
  void park(const Link::Record& record);

  std::chrono::milliseconds stall_timeout_;
  ChaosSpec chaos_;
  std::uint64_t seed_;

  std::size_t n_ = 0;
  /// Two Links per loopback channel: links_[2c] is channel c's sending end
  /// (it reads acks back on a chaotic channel) and links_[2c + 1] its
  /// receiving end (it delivers frames, writes acks).
  std::vector<Link> links_;
  std::vector<std::size_t> expected_;       ///< frames submitted per slot
  std::vector<std::vector<Parked>> parked_; ///< frames received per slot
  std::uint64_t next_seq_ = 0;
  Bytes encode_buf_;  ///< reused per submit; steady state allocates nothing
};

}  // namespace simulcast::net
