// SocketTransport: the loopback TCP backend of the transport seam.
//
// open() builds one loopback TCP channel per destination endpoint — one
// per party, one for the broadcast channel, one for the trusted
// functionality — by binding an ephemeral 127.0.0.1 listener, connecting,
// and accepting (n + 2 real kernel connections per execution).  submit()
// serializes the message as
//
//   u64 seq | u64 slot | <wire frame (net/wire.h)>
//
// and writes it to the destination's channel; collect(slot) runs an epoll
// event loop — nonblocking reads with stream reassembly, nonblocking
// writes draining per-channel outboxes — until every frame submitted for
// `slot` has arrived, then returns the messages ordered by submission
// sequence number.  The reorder-by-seq step is what keeps party outputs
// and verdicts identical to the in-process backend (DESIGN.md section 11):
// the kernel may interleave channels arbitrarily, but delivery order never
// depends on it.  Wall-clock timing, and only wall-clock timing, differs.
//
// The event loop is single-threaded and owned by one execution, so
// concurrent exec::Runner workers each drive their own loop with no shared
// state (TSan-clean by construction).  Sockets are closed with SO_LINGER
// abort semantics: a campaign runs tens of thousands of executions, and
// letting each connection linger in TIME_WAIT would exhaust loopback
// ephemeral ports within minutes.
//
// Failure modes: syscall failures throw std::system_error (which
// exec::Runner's retry policy treats as transient — correct for transient
// port/fd pressure); malformed bytes on a channel throw ProtocolError; a
// flush that stops making progress for kStallTimeout throws ProtocolError
// rather than hanging the campaign.
//
// Chaos (configure_chaos before open): each targeted channel gets a
// deterministic net::Chaos engine ("socket:<index>") disturbing first
// transmissions at submit — drops, duplicates, delay/reorder deferrals,
// payload bit-flips (the seq|slot prelude and the wire length prefix stay
// intact, so framing never desynchronizes).  Recovery is sender-driven:
// the submit path keeps a per-slot ledger of chaos-touched frames, the
// receive path rejects corrupted frames by CRC (net.chaos.corrupt_rejected)
// and deduplicates by sequence number, and collect() retransmits the
// ledger's still-missing frames clean after a no-progress backoff,
// charging each channel's retransmit budget only for frames chaos actually
// harmed.  A channel that spends its budget stops retransmitting and the
// flush stall surfaces as the usual ProtocolError, annotated with the
// exhaustion — on this backend degradation is an execution failure, not a
// party crash (that contract belongs to the process transport).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "net/chaos.h"
#include "net/transport.h"

namespace simulcast::net {

class SocketTransport final : public Transport {
 public:
  /// `stall_timeout` bounds how long collect() may go without progress.
  explicit SocketTransport(std::chrono::milliseconds stall_timeout = kDefaultNetTimeout)
      : stall_timeout_(stall_timeout) {}
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  [[nodiscard]] TransportKind kind() const noexcept override {
    return TransportKind::kSocket;
  }

  void open(std::size_t n, std::size_t slots) override;
  void submit(sim::Message m, std::size_t slot) override;
  [[nodiscard]] std::vector<sim::Message> collect(std::size_t slot) override;
  void configure_chaos(const ChaosSpec& spec, std::uint64_t seed) override;
  void close() override;

  [[nodiscard]] const ChaosStats& chaos_stats() const noexcept { return chaos_stats_; }

 private:
  // An event loop making no progress for stall_timeout_ (the
  // --net-timeout=S knob; 30s unless overridden) is a wedged execution;
  // collect() throws instead of hanging the campaign.
  std::chrono::milliseconds stall_timeout_;

  /// One loopback TCP channel: the scheduler writes to `send_fd`, the
  /// event loop reads completed records back from `recv_fd`.
  struct Channel {
    int send_fd = -1;
    int recv_fd = -1;
    Bytes outbox;             ///< serialized records not yet written
    std::size_t outbox_head = 0;  ///< first unwritten outbox byte
    bool want_write = false;  ///< send_fd registered for EPOLLOUT
    Bytes inbuf;              ///< stream-reassembly buffer
    std::size_t inbuf_head = 0;   ///< first unparsed inbuf byte
    std::unique_ptr<Chaos> chaos;     ///< null = clean channel
    std::size_t budget_used = 0;      ///< charged retransmit bursts
    bool chaos_dead = false;          ///< budget spent: no more retransmits
  };

  /// A frame parked until its slot is collected, keyed for the
  /// deterministic reorder.
  struct Parked {
    std::uint64_t seq = 0;
    sim::Message message;
  };

  /// A chaos-touched frame retained (clean) until its slot is collected,
  /// so collect() can retransmit whatever never arrived.
  struct LedgerEntry {
    std::uint64_t seq = 0;
    std::size_t channel = 0;
    Bytes bytes;         ///< clean serialized record, prelude included
    bool harmed = false; ///< dropped or corrupted: retransmitting it
                         ///< charges the channel's budget
  };

  /// A first transmission held back by a delay or reorder verdict (bytes
  /// already carry any corruption).
  struct DeferredTx {
    std::uint64_t seq = 0;
    std::size_t channel = 0;
    Bytes bytes;
    bool duplicate = false;
    std::size_t hold = 0;
    std::chrono::steady_clock::time_point release;  ///< max() = hold-gated
  };

  [[nodiscard]] std::size_t channel_for(sim::PartyId to) const;
  void pump_writes();
  void drain_channel_writes(std::size_t index);
  void on_readable(std::size_t index);
  void parse_channel(std::size_t index);
  void update_write_interest(std::size_t index, bool want);
  void submit_chaotic(std::size_t index, std::size_t slot);
  void pump_deferred(std::chrono::steady_clock::time_point now);
  void retransmit_missing(std::size_t slot);
  [[nodiscard]] bool any_channel_budget_dead() const noexcept;

  std::size_t n_ = 0;
  int epoll_fd_ = -1;
  std::vector<Channel> channels_;
  std::vector<std::size_t> expected_;       ///< frames submitted per slot
  std::vector<std::vector<Parked>> parked_; ///< frames received per slot
  std::uint64_t next_seq_ = 0;
  Bytes encode_buf_;  ///< reused per submit; steady state allocates nothing

  bool chaos_enabled_ = false;
  ChaosSpec chaos_spec_;
  std::uint64_t chaos_seed_ = 0;
  std::vector<std::vector<LedgerEntry>> ledger_;          ///< per slot
  std::vector<std::unordered_set<std::uint64_t>> seen_;   ///< per-slot dedup
  std::vector<DeferredTx> deferred_;
  ChaosStats chaos_stats_;
};

}  // namespace simulcast::net
