// net::Link: one end of a record stream, and the one wire-recovery
// protocol under both kernel-crossing backends.
//
// A Link wraps one end of a connected AF_UNIX or loopback-TCP stream
// socket.  It neither owns nor configures the descriptor: every send and
// recv passes MSG_DONTWAIT, so the same code runs on the process backend's
// socketpairs (net/worker.h) and the socket backend's TCP channels
// (net/socket.h).  Outgoing bytes queue in an outbox and incoming bytes in
// an inbuf; the Link has no wait loop of its own.  Its owner calls pump()
// when the descriptor is readable or writable or wake() has passed, and
// next() to take delivered records.
//
// On a clean wire a record is
//
//   u32 len | u8 type | body                          (len covers type..body)
//
// After enable_chaos() — only on channels the chaos spec targets, both ends
// at the same point of the stream — every record becomes
//
//   u32 len | u8 kind | u64 seq | rest | u32 crc32c   (crc covers kind..rest)
//
// with kind 1 (data: rest = u8 type | body) or kind 2 (ack: rest empty,
// seq = next data seq expected, cumulative).  Both layouts are
// length-prefixed fields written and read with base/bytes.h's
// ByteWriter/ByteReader; the reliable one ends in net/wire.h's CRC
// trailer (end_crc_field / crc_field_contents), as frames do.  Chaos
// (net/chaos.h) disturbs only *first transmissions* of data records,
// below the length prefix, so framing never desynchronizes; acks and
// retransmissions ride clean.  The receiver delivers strictly in
// sequence, discarding gaps, duplicates and CRC rejects and re-acking its
// position (go-back-N).  The sender keeps
// every unacked record and retransmits them all when the RTO fires: an
// RFC 6298 srtt/rttvar estimate from clean ack round trips (Karn's rule),
// clamped to [25 ms, 1 s], doubled per burst and back to the estimate
// once an ack covers new data.  A burst charges the chaos budget only
// when some unacked record was harmed (dropped or corrupted on its first
// transmission); spurious RTOs on a merely slow peer retransmit for free,
// so budget exhaustion is a pure function of (seed, spec, traffic).  A
// spent budget makes the Link dead (sticky): the owner decides what that
// means — a party crash on the process backend, an execution failure on
// the socket backend (DESIGN.md section 15).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/bytes.h"
#include "net/chaos.h"

namespace simulcast::net {

/// Upper bound on one record's declared length; a length prefix beyond it
/// is garbage, not a huge message (ProtocolError, never an allocation).
inline constexpr std::size_t kMaxRecord = std::size_t{1} << 26;

class Link {
 public:
  using Clock = std::chrono::steady_clock;

  /// A delivered record; its body is valid until the next pump().
  struct Record {
    std::uint8_t type = 0;
    ByteSpan body;
  };

  /// Names a record type in error messages; null prints the number.
  using TypeName = std::string_view (*)(std::uint8_t type) noexcept;

  explicit Link(int fd = -1, TypeName type_name = nullptr) : fd_(fd), type_name_(type_name) {}

  /// Switches to reliable records with `spec` disturbing this end's first
  /// transmissions.  Call once, on both ends, at the same point of the
  /// stream; `label` personalizes the chaos DRBG and names the Link in
  /// errors and log events.  The spec must be enabled().
  void enable_chaos(const ChaosSpec& spec, std::uint64_t seed, std::string_view label);

  /// Names the Link in errors ("coord:P3"); enable_chaos() sets it too.
  void set_label(std::string_view label) { label_ = label; }

  /// Queues one record and writes what the socket takes now.  False when
  /// the peer is gone.  A chaos-dropped record still returns true: the
  /// retransmit machinery owns its recovery.
  bool send(std::uint8_t type, ByteSpan body);

  /// Reads whatever the socket holds, releases deferred first
  /// transmissions due by `now`, fires the RTO when due, and writes what
  /// the socket takes.  Throws std::system_error on unexpected syscall
  /// failures.
  void pump(Clock::time_point now);

  /// The next record delivered in order, or nullopt when none is complete.
  /// Absorbs acks and discards CRC rejects, gaps and duplicates on the way.
  /// Throws ProtocolError on a malformed length or record.
  [[nodiscard]] std::optional<Record> next();

  /// Sends every held-back first transmission now; an owner about to exit
  /// calls it, since no later record will pass them.
  void release_held() {
    release_deferred(Clock::now(), /*all=*/true);
    flush();
  }

  /// When pump() next has timer work (an RTO or a delayed first
  /// transmission); time_point::max() when none.
  [[nodiscard]] Clock::time_point wake() const noexcept;

  /// Worst case before a stalled reliable Link must have recovered or
  /// spent its budget: one RTO per remaining charged burst plus a second
  /// of headroom.
  [[nodiscard]] std::chrono::milliseconds recovery_bound() const noexcept;

  [[nodiscard]] bool wants_write() const noexcept { return out_head_ < outbox_.size(); }
  [[nodiscard]] bool closed() const noexcept { return closed_; }
  [[nodiscard]] bool dead() const noexcept { return dead_; }
  /// Nothing left to write and nothing awaiting an ack.
  [[nodiscard]] bool settled() const noexcept { return !wants_write() && unacked_.empty(); }
  [[nodiscard]] bool reliable() const noexcept { return chaos_ != nullptr; }
  [[nodiscard]] const ChaosStats& chaos_stats() const noexcept { return stats_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  /// One unacknowledged data record.
  struct Unacked {
    std::uint64_t seq = 0;
    Bytes record;  ///< complete clean record, for retransmission
    Clock::time_point first_sent;
    bool retransmitted = false;  ///< Karn's rule: no RTT sample once true
    bool harmed = false;         ///< chaos dropped or corrupted the first tx
    /// A first transmission held back by a delay or reorder verdict, empty
    /// once sent; the bytes already carry any corruption (drawn at verdict
    /// time, keeping the DRBG stream in first-transmission order).
    Bytes held{};
    bool duplicate = false;       ///< release two copies
    std::size_t hold = 0;         ///< release after this many later first sends
    Clock::time_point release{};  ///< max() = hold-gated
  };

  void send_reliable(std::uint8_t type, ByteSpan body);
  /// One complete reliable record (kind..crc): the in-sequence data it
  /// delivers, or nullopt for an ack, a CRC reject, a gap or a duplicate.
  [[nodiscard]] std::optional<Record> accept(ByteSpan rec);
  void receive();
  void flush();
  void queue(const Bytes& bytes) { outbox_.insert(outbox_.end(), bytes.begin(), bytes.end()); }
  /// Queues the held first transmissions due by `now` (all of them with
  /// `all`).
  void release_deferred(Clock::time_point now, bool all = false);
  void retransmit_all(Clock::time_point now);
  void on_ack(std::uint64_t next_expected, Clock::time_point now);
  [[noreturn]] void throw_sys(const char* what) const;

  int fd_;
  TypeName type_name_;
  std::string label_ = "unlabeled";
  Bytes outbox_;
  std::size_t out_head_ = 0;  ///< first unwritten outbox byte
  Bytes inbuf_;
  std::size_t in_head_ = 0;   ///< first unparsed inbuf byte
  bool closed_ = false;       ///< EOF, reset or broken pipe seen

  // Reliable-mode state (untouched on a clean wire).
  std::unique_ptr<Chaos> chaos_;
  bool dead_ = false;     ///< budget spent (sticky)
  bool ack_due_ = false;  ///< a data record arrived since the last ack
  std::uint64_t tx_next_ = 0;  ///< next data seq this end assigns
  std::uint64_t rx_next_ = 0;  ///< next data seq this end delivers
  std::vector<Unacked> unacked_;  ///< in seq order
  std::chrono::milliseconds rto_{0};
  Clock::time_point rto_deadline_;  ///< armed iff unacked_ is non-empty
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  std::size_t budget_used_ = 0;  ///< charged retransmit bursts
  ChaosStats stats_;
};

}  // namespace simulcast::net
