// SocketTransport: the loopback TCP backend of the transport seam.
//
// open() makes one loopback TCP connection per execution, by binding an
// ephemeral 127.0.0.1 listener, connecting and accepting.  Each end is a
// net::Link (net/link.h): submit() hands the sending Link one record
//
//   u64 slot | <wire frame (net/wire.h)>
//
// and collect(slot) waits on both Links (net::wait_links) until every
// frame submitted for `slot` has arrived.  One stream delivers records in
// the order they were written, so collect returns a slot's frames in
// submission order: the in-process backend's order, which keeps party
// outputs and verdicts identical to it (DESIGN.md section 11).  The wire
// carries every destination's traffic; who receives what (private
// channels, partitions) is the scheduler's decision, made above the
// transport.  Wall-clock timing, and only wall-clock timing, differs.
//
// The transport is single-threaded and owned by one execution, so
// concurrent exec::Runner workers each wait on their own Links with no
// shared state (TSan-clean by construction).  Sockets are closed with SO_LINGER
// abort semantics: a campaign runs tens of thousands of executions, and
// letting each connection linger in TIME_WAIT would exhaust loopback
// ephemeral ports within minutes.
//
// Chaos (a constructor argument): both Links switch to reliable records,
// the sending one drawing its fates from one "wire-chaos:socket" DRBG.  A
// record is exposed to chaos when the spec applies to its destination
// (ChaosSpec::applies_to): party:ID disturbs only records addressed to
// party ID, and broadcast and functionality records only an all-party
// spec.  Unexposed records ride the same stream, sequenced but clean.
// `after` and `budget` count per stream.  Recovery is the Link's —
// go-back-N, cumulative acks riding back on the same connection, the RTO
// — and the wait sleeps until the next Link timer rather than spinning.
// A stream whose Link spends its retransmit budget fails the execution at
// that RTO with a ProtocolError naming the exhaustion: on this backend
// degradation is an execution failure, not a party crash (that contract
// belongs to the process transport).
//
// Failure modes: syscall failures throw std::system_error (which
// exec::Runner's retry policy treats as transient — correct for transient
// port/fd pressure); malformed bytes on the stream throw ProtocolError; a
// flush that stops making progress for the stall timeout throws
// ProtocolError rather than hanging the campaign.
#pragma once

#include <array>
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
  /// `chaos` (inert by default) disturbs the records it targets, its DRBG
  /// forked from `seed`.
  explicit SocketTransport(std::chrono::milliseconds stall_timeout = kDefaultNetTimeout,
                           const ChaosSpec& chaos = {}, std::uint64_t seed = 0);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] TransportKind kind() const noexcept override {
    return TransportKind::kSocket;
  }

  void open(std::size_t slots) override;
  void submit(sim::Message m, std::size_t slot) override;
  [[nodiscard]] std::vector<sim::Message> collect(std::size_t slot) override;
  void close() override;

  /// This execution's chaos accounting, summed over both Links.
  [[nodiscard]] ChaosStats chaos_stats() const;

 private:
  /// Parks every frame the Links delivered under its slot.  Throws on a
  /// malformed record, or when the stream closed or spent its budget
  /// while `slot` was being collected.
  void take_delivered(std::size_t slot);

  std::chrono::milliseconds stall_timeout_;
  ChaosSpec chaos_;
  std::uint64_t seed_;

  /// The stream's two ends, fd -1 while closed: links_[0] sends frames
  /// (and reads acks back under chaos), links_[1] delivers them (and
  /// writes acks).
  std::array<Link, 2> links_;
  std::vector<std::size_t> expected_;              ///< frames submitted per slot
  std::vector<std::vector<sim::Message>> parked_;  ///< frames received per slot
  Bytes encode_buf_;  ///< reused per submit; steady state allocates nothing
};

}  // namespace simulcast::net
