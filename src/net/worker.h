// The control protocol of the process transport (--transport=process):
// the frames a coordinator (net/procs.h) and a worker exchange, the
// handshake codec shared by both ends, and the channel they speak through.
// The worker itself — argv parsing, hello checks, the party machine and
// its round loop — is sim::maybe_worker_main (sim/network.h), since it
// drives sim::Party machines the net layer cannot name.
//
// A worker is this very binary re-executed (/proc/self/exe) with its end
// of a socketpair on a fixed descriptor:
//
//   <exe> --simulcast-worker-fd=3 --simulcast-net-timeout=MS
//
// so every driver and test that calls sim::maybe_worker_main early in
// main (drivers through exec::configure) can host workers without a
// separate binary — protocol registries, static initializers and
// test-local protocols are all present in the child for free.
//
// Control frames ride the channel as
//
//   u32 body_len | u8 type (ProcFrame) | body
//
// with bodies in the base/bytes.h canonical serialization.  The session
// is strictly request/reply, coordinator-driven:
//
//   coordinator                      worker
//   -----------                      ------
//   kHello {version, n, slot, ...}
//                                    kAck {slot echo}
//   kBegin
//                                    kOut {begin-outbox batch}
//   kRound {r, inbox batch}    (xR)
//                                    kOut {round-outbox batch}
//   kFinish {inbox batch}
//                                    kOutput {has, size, packed} + exit 0
//
// Inboxes and outboxes travel as net/wire.h message batches (a count,
// then the wire frames).  A machine that throws ProtocolError replies
// kFailed instead and exits 0 (fail-in-place, mirroring the in-process
// scheduler).  EOF on the channel is the shutdown signal; a worker that
// reads EOF (or times out waiting for the coordinator) exits quietly.
// A malformed, mis-versioned or unhostable hello makes the worker exit
// without acking, which the coordinator surfaces as ProtocolError.
//
// Both ends speak through one net::Link (net/link.h): plain records on a
// clean wire, and — when the hello carries a chaos spec that targets this
// party (net/chaos.h) — reliable records from right after the handshake
// on, on both ends.  A Link whose retransmit budget is spent makes the
// channel report Status::kBudget, which the coordinator books as a worker
// crash (graceful degradation, DESIGN.md section 15).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/bytes.h"
#include "net/chaos.h"
#include "net/link.h"
#include "net/transport.h"

namespace simulcast::net {

/// "SPC1" — first field of hello and ack, so a foreign process on the
/// descriptor is rejected before any length field is trusted.
inline constexpr std::uint32_t kProcMagic = 0x53504331;

/// Bumped on any control-protocol change; both ends reject other versions.
inline constexpr std::uint8_t kProcVersion = 4;

/// Control-frame types.  Requests are low, replies have the high bit set.
enum class ProcFrame : std::uint8_t {
  kHello = 1,
  kBegin = 2,
  kRound = 3,
  kFinish = 4,
  kAck = 0x81,
  kOut = 0x82,
  kFailed = 0x83,
  kOutput = 0x84,
};

/// "hello" / "begin" / ... for error messages; "unknown" for garbage.
[[nodiscard]] std::string_view proc_frame_name(ProcFrame type) noexcept;

/// The versioned handshake body: exactly what a worker reads to rebuild
/// its party machine.  The fault plan stays with the coordinator, whose
/// scheduler applies it; a worker never sees one.
struct WorkerHello {
  std::uint64_t n = 0;
  std::uint64_t slot = 0;   ///< this worker's party id
  std::uint64_t seed = 0;   ///< master execution seed
  std::uint64_t rounds = 0;
  bool input = false;       ///< the party's input bit
  std::string protocol;     ///< registry name (core/registry.h)
  std::string commitments;  ///< scheme name; "" = no scheme
  std::string chaos;        ///< canonical chaos spec; "" = clean wire
};

/// Handshake codecs over frame *bodies* (WorkerChannel::write_frame adds
/// the length prefix and type byte).  The ack body is the preamble and the
/// slot it echoes.  decode_* throws ProtocolError on truncation, trailing
/// slack, bad magic or version.
void encode_worker_hello(const WorkerHello& hello, Bytes& out);
[[nodiscard]] WorkerHello decode_worker_hello(const Bytes& body);
void encode_worker_ack(std::uint64_t slot, Bytes& out);
[[nodiscard]] std::uint64_t decode_worker_ack(const Bytes& body);

/// One end of the coordinator<->worker socketpair: a net::Link with a
/// frame API, which blocks in net::wait_links.  Does not own the
/// descriptor.  The Link's enable_chaos (call once, right after the
/// handshake, on both ends, each with its own label), set_label, reliable
/// and chaos_stats are the channel's own.  Single-threaded, like every
/// per-execution object.
class WorkerChannel : private Link {
 public:
  enum class Status {
    kOk,
    kEof,
    kTimeout,
    kBudget,  ///< retransmit budget spent: the wire was too hostile
  };

  /// `net_timeout` is the flat stall deadline (--net-timeout) that
  /// stall_deadline() never exceeds.
  explicit WorkerChannel(int fd, std::chrono::milliseconds net_timeout = kDefaultNetTimeout);

  using Link::chaos_stats;
  using Link::enable_chaos;
  using Link::reliable;
  using Link::set_label;

  /// Queues one frame and writes what the socket takes; the next wait
  /// (read_frame or drain) writes the rest.  Returns false when the peer
  /// is gone (a dead worker is a crash, not an error); throws
  /// std::system_error on any other syscall failure.  Chaos targets whole
  /// channels, and a chaos-dropped frame still returns true (the Link owns
  /// its recovery).
  bool write_frame(ProcFrame type, const Bytes& body) {
    return send(static_cast<std::uint8_t>(type), body, /*exposed=*/true);
  }

  /// Reads one complete frame, waiting at most `deadline`.  kEof when the
  /// peer closed; kTimeout when the deadline passed first; kBudget
  /// (sticky) when the retransmit budget is spent.  Throws ProtocolError
  /// on an oversized length prefix, std::system_error on syscall failure.
  [[nodiscard]] Status read_frame(ProcFrame& type, Bytes& body,
                                  std::chrono::milliseconds deadline);

  /// The stall deadline a blocking wait on this channel should use: the
  /// flat net timeout on a clean wire, otherwise the Link's recovery bound
  /// (never above the flat knob, never below one second).
  [[nodiscard]] std::chrono::milliseconds stall_deadline() const;

  /// Waits, at most `deadline` long, until everything this end wrote is
  /// on the wire and — with chaos enabled — acknowledged.  A worker calls
  /// this before exiting so terminal replies survive.  True when settled.
  bool drain(std::chrono::milliseconds deadline);

 private:
  /// Waits (wait_links) until `done()` holds or the Link dies, closes or
  /// times out.
  template <class Done>
  Status wait(std::chrono::milliseconds deadline, Done done);

  std::chrono::milliseconds net_timeout_;
};

/// argv spelling shared by the supervisor and the worker entry.
inline constexpr const char* kWorkerFdFlag = "--simulcast-worker-fd=";
inline constexpr const char* kWorkerTimeoutFlag = "--simulcast-net-timeout=";

}  // namespace simulcast::net
