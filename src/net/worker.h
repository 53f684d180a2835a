// Worker side of the process transport (--transport=process): the
// re-exec'd per-party entrypoint, the control-frame protocol it speaks
// with the coordinator (net/procs.h), and the handshake codec shared by
// both ends.
//
// A worker is this very binary re-executed (/proc/self/exe) with its end
// of a socketpair on a fixed descriptor:
//
//   <exe> --simulcast-worker-fd=3 --simulcast-net-timeout=S
//
// so every driver and test that calls maybe_worker_main() early in main
// can host workers without a separate binary — protocol registries,
// static initializers and test-local protocols are all present in the
// child for free.
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
//                                    kAck {slot echo, digest echo}
//   kBegin
//                                    kOut {begin-outbox frames}
//   kRound {r, inbox frames}   (xR)
//                                    kOut {round-outbox frames}
//   kFinish {inbox frames}
//                                    kOutput {has, size, packed} + exit 0
//
// Party messages inside kRound/kFinish/kOut bodies use the net/wire.h
// frame format unchanged.  A machine that throws ProtocolError replies
// kFailed instead and exits 0 (fail-in-place, mirroring the in-process
// scheduler).  EOF on the channel is the shutdown signal; a worker that
// reads EOF (or times out waiting for the coordinator) exits quietly.
// Malformed or mis-versioned hello frames make the worker exit without
// acking, which the coordinator surfaces as ProtocolError.
//
// Resilient framing (v2): when the hello carries a chaos spec that targets
// this party (net/chaos.h), both ends call enable_chaos() right after the
// handshake and every subsequent frame rides a reliability record
//
//   u32 rec_len | u8 kind | u64 seq | rest | u32 crc32c
//
// with kind 1 (data: rest = u8 type | body) or kind 2 (ack: rest empty,
// seq = next expected data seq, cumulative).  The CRC covers kind..rest.
// Chaos disturbs only *first transmissions* of data records (the length
// prefix stays intact — packet-granularity netem semantics, framing never
// desynchronizes); acks and retransmissions always ride clean.  The
// receiver delivers strictly in sequence, discarding gaps and duplicates
// and re-acking, go-back-N style.  The sender keeps unacked records,
// retransmits them all after an adaptive RTO (RFC6298-style srtt/rttvar
// from clean ack round trips, exponential backoff) and charges the chaos
// budget once per retransmit burst that recovers a frame chaos actually
// harmed — spurious RTOs on a merely slow peer retransmit for free, so
// budget exhaustion is a pure function of (seed, spec, traffic).  A spent
// budget makes the channel report Status::kBudget, which the coordinator
// books as a worker crash (graceful degradation, DESIGN.md section 15).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>

#include "base/bytes.h"
#include "net/chaos.h"
#include "net/transport.h"

namespace simulcast::net {

/// "SPC1" — first field of hello and ack, so a foreign process on the
/// descriptor is rejected before any length field is trusted.
inline constexpr std::uint32_t kProcMagic = 0x53504331;

/// Bumped on any control-protocol change; both ends reject other versions.
/// v2: the hello carries the chaos spec and chaos-targeted channels switch
/// to reliability records after the handshake.
inline constexpr std::uint8_t kProcVersion = 2;

/// Upper bound on one control-frame body; a length prefix beyond it is
/// garbage, not a huge message (ProtocolError, never an allocation).
inline constexpr std::size_t kMaxProcFrame = std::size_t{1} << 26;

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

/// Everything a worker needs to reconstruct its party machine: the
/// versioned handshake body.  The fault digest binds the worker to the
/// coordinator's FaultPlan so a mixed-up pairing is caught at handshake
/// time, not as silent divergence.
struct WorkerHello {
  std::uint64_t n = 0;
  std::uint64_t slot = 0;          ///< this worker's party id
  std::uint64_t k = 0;             ///< security parameter
  std::uint64_t seed = 0;          ///< master execution seed
  std::uint64_t rounds = 0;
  bool input = false;              ///< the party's input bit
  bool spectator = false;          ///< respawned replacement: ack, then drain
  bool kill_enabled = false;       ///< raise SIGKILL on round kill_round
  std::uint64_t kill_round = 0;
  std::uint64_t fault_digest = 0;  ///< digest of FaultPlan::summary()
  std::string protocol;            ///< registry name (core/registry.h)
  std::string commitments;         ///< scheme name; "" = no scheme
  std::string chaos;               ///< canonical chaos spec; "" = clean wire
};

/// Worker's handshake reply: echoes enough to prove it parsed the hello
/// it was meant to receive.
struct WorkerAck {
  std::uint64_t slot = 0;
  std::uint64_t fault_digest = 0;
};

/// Handshake codecs over frame *bodies* (WorkerChannel::write_frame adds
/// the length prefix and type byte).  decode_* throws ProtocolError on
/// truncation, trailing slack, bad magic or version.
void encode_worker_hello(const WorkerHello& hello, Bytes& out);
[[nodiscard]] WorkerHello decode_worker_hello(const Bytes& body);
void encode_worker_ack(const WorkerAck& ack, Bytes& out);
[[nodiscard]] WorkerAck decode_worker_ack(const Bytes& body);

/// One end of the coordinator<->worker socketpair: blocking-write,
/// deadline-read control framing with stream reassembly.  Does not own
/// the descriptor.  Single-threaded, like every per-execution object.
///
/// Plain mode (the default, and always the handshake) writes bare
/// `u32 len | u8 type | body` frames.  After enable_chaos() the channel
/// speaks the reliability-record protocol documented at the top of this
/// header: chaotic first transmissions, clean acks and retransmissions,
/// go-back-N delivery, adaptive RTO, bounded retransmit budget.
class WorkerChannel {
 public:
  enum class Status {
    kOk,
    kEof,
    kTimeout,
    kBudget,  ///< retransmit budget spent: the wire was too hostile
  };

  /// `net_timeout` is the flat stall deadline (--net-timeout) that
  /// stall_deadline() never exceeds.
  explicit WorkerChannel(int fd, std::chrono::milliseconds net_timeout = kDefaultNetTimeout)
      : fd_(fd), net_timeout_(net_timeout) {}
  WorkerChannel(const WorkerChannel&) = delete;
  WorkerChannel& operator=(const WorkerChannel&) = delete;

  /// Writes one complete frame.  Returns false when the peer is gone
  /// (EPIPE/ECONNRESET — a dead worker is a crash, not an error); throws
  /// std::system_error on any other syscall failure.  In reliable mode
  /// the frame becomes a data record whose first transmission is subject
  /// to chaos; a chaos-dropped record still returns true (the retransmit
  /// machinery owns its recovery).
  bool write_frame(ProcFrame type, const Bytes& body);

  /// Reads one complete frame, waiting at most `deadline` for progress.
  /// kEof when the peer closed mid-stream or cleanly; kTimeout when the
  /// deadline passed first; kBudget (reliable mode, sticky) when the
  /// retransmit budget is spent.  The wait loop also pumps the reliable
  /// machinery: deferred chaotic sends, acks, RTO retransmissions.
  /// Throws ProtocolError on an oversized length prefix, std::system_error
  /// on syscall failure.
  [[nodiscard]] Status read_frame(ProcFrame& type, Bytes& body,
                                  std::chrono::milliseconds deadline);

  /// Switches to the reliability-record protocol with `spec` disturbing
  /// this end's first transmissions.  Call exactly once, right after the
  /// handshake, on both ends (each end passes its own `label`, which
  /// personalizes the DRBG and prefixes error/log context).  The spec must
  /// be enabled().
  void enable_chaos(const ChaosSpec& spec, std::uint64_t seed, std::string_view label);

  /// Names this channel in error messages ("coord:P3") even in plain mode;
  /// enable_chaos() sets it too.
  void set_label(std::string_view label) { label_ = label; }

  /// The stall deadline a blocking wait on this channel should use: the
  /// flat net timeout in plain mode, otherwise an adaptive bound
  /// derived from the observed RTO and the remaining retransmit budget
  /// (never above the flat knob, never below one second).
  [[nodiscard]] std::chrono::milliseconds stall_deadline() const;

  /// Reliable mode: pumps acks and retransmissions until every data record
  /// this end wrote has been acknowledged, at most `deadline` long.  A
  /// worker calls this before exiting so terminal replies survive chaos.
  /// True when fully acknowledged (trivially true in plain mode).
  bool drain(std::chrono::milliseconds deadline);

  [[nodiscard]] bool reliable() const noexcept { return reliable_; }
  [[nodiscard]] const ChaosStats& chaos_stats() const noexcept { return stats_; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  /// One unacknowledged data record (clean bytes, for retransmission).
  struct Unacked {
    std::uint64_t seq = 0;
    Bytes record;  ///< complete clean record, length prefix included
    std::chrono::steady_clock::time_point first_sent;
    bool retransmitted = false;  ///< Karn's rule: no RTT sample once true
    bool harmed = false;         ///< chaos dropped or corrupted the first tx
  };

  /// A first transmission held back by a delay or reorder verdict; the
  /// bytes already carry any corruption (drawn at verdict time, keeping
  /// the DRBG stream in first-transmission order).
  struct Deferred {
    std::uint64_t seq = 0;
    Bytes bytes;
    bool duplicate = false;
    std::size_t hold = 0;  ///< release after this many later first sends
    std::chrono::steady_clock::time_point release;  ///< max() = hold-gated
  };

  bool send_all(const std::uint8_t* data, std::size_t size);
  bool write_plain(ProcFrame type, const Bytes& body);
  bool write_reliable(ProcFrame type, const Bytes& body);
  bool send_ack();
  /// Sends every deferred record due by `now` (or all of them when
  /// `flush` — retransmission and drain supersede deferral).
  bool pump_deferred(std::chrono::steady_clock::time_point now, bool flush);
  /// Retransmits every unacked record clean; charges the budget when some
  /// unacked record was chaos-harmed.  False when the budget is spent.
  bool retransmit_all(std::chrono::steady_clock::time_point now);
  void on_ack(std::uint64_t next_expected, std::chrono::steady_clock::time_point now);
  /// Parses one complete reliability record out of inbuf_ if available:
  /// 1 = data record delivered into (type, body), 0 = nothing complete,
  /// -1 = record consumed without a delivery (ack, gap, duplicate, CRC
  /// reject) — caller keeps parsing.
  int parse_record(ProcFrame& type, Bytes& body);
  [[nodiscard]] std::size_t budget() const noexcept { return chaos_->spec().budget; }
  void compact_inbuf();

  int fd_;
  std::chrono::milliseconds net_timeout_;
  std::string label_ = "unlabeled";
  Bytes inbuf_;                 ///< stream-reassembly buffer
  std::size_t inbuf_head_ = 0;  ///< first unparsed inbuf byte

  // Reliable-mode state (untouched in plain mode).
  bool reliable_ = false;
  bool budget_dead_ = false;  ///< sticky kBudget
  std::optional<Chaos> chaos_;
  std::uint64_t tx_next_ = 0;  ///< next data seq this end assigns
  std::uint64_t rx_next_ = 0;  ///< next data seq this end delivers
  std::deque<Unacked> unacked_;
  std::deque<Deferred> deferred_;
  std::chrono::milliseconds rto_{0};
  std::chrono::steady_clock::time_point rto_deadline_;  ///< armed iff unacked_
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  std::size_t budget_used_ = 0;  ///< charged retransmit bursts
  ChaosStats stats_;
};

/// The worker round loop, installed by sim/network.cpp at static-init
/// time (the loop drives sim::Party machines, which the net layer cannot
/// name).  Receives the validated hello and the channel right after the
/// generic handshake checks; returns the process exit code.
using WorkerLoop = int (*)(WorkerChannel& channel, const WorkerHello& hello);
void set_worker_loop(WorkerLoop loop) noexcept;

/// Worker-process dispatch: call first thing in main (drivers get it via
/// exec::configure).  Returns -1 when argv carries no worker fd flag — the
/// caller proceeds as a normal process — otherwise runs the worker to
/// completion and returns its exit code (callers std::exit it).  A
/// malformed fd or timeout value returns 3 before any descriptor is
/// touched.  Never throws; worker-side failures become nonzero exit codes.
[[nodiscard]] int maybe_worker_main(int argc, char** argv);

/// argv spelling shared by the supervisor and the dispatcher.
inline constexpr const char* kWorkerFdFlag = "--simulcast-worker-fd=";
inline constexpr const char* kWorkerTimeoutFlag = "--simulcast-net-timeout=";
inline constexpr const char* kWorkerMuteFlag = "--simulcast-worker-mute";

}  // namespace simulcast::net
