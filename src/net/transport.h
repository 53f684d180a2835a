// The pluggable transport seam under the round scheduler.
//
// The scheduler (sim/network.cpp) decides *what* is delivered *when*: it
// applies the FaultPlan to each outgoing message, assigns the delivery
// slot, and filters partitioned links at delivery.  A Transport decides
// *how* the bytes move between those two points.  The contract is a
// slot-addressed mailbox:
//
//   open(n, slots)        once per execution, before any traffic;
//   submit(m, slot)       hand over one message for delivery slot `slot`
//                         (the scheduler only submits to slots it has not
//                         collected yet);
//   collect(slot)         every message submitted for `slot`, in
//                         submission order — the ordering guarantee that
//                         makes delivery deterministic on every backend;
//   close()               release resources (idempotent; also run by the
//                         destructor).
//
// Determinism per backend (DESIGN.md section 11):
//   - InProcessTransport (the default) is the extracted body of the old
//     pending-delivery vectors: a submit is a vector push, a collect is a
//     vector move.  Executions are bit-identical to the pre-transport
//     scheduler — the purity contract, exec::Runner checkpoints and every
//     golden output are unchanged.  It has no wire, so it ignores a chaos
//     spec (the CLI rejects that combination up front).
//   - SocketTransport (net/socket.h) moves every frame through per-party
//     loopback TCP channels, each a pair of net::Links (net/link.h) on one
//     epoll loop.  Frames carry a submission sequence number and collect()
//     reorders by it, so party outputs and verdicts are identical to the
//     in-process backend even under recoverable chaos; only wall-clock
//     timing (and therefore timing metrics) varies.
//
// Every backend accounts WireStats using the net/wire.h encoding, so
// "bytes on wire" means the same thing whether or not a kernel was
// involved: the in-process backend prices frames with encoded_size(),
// the socket backend counts each frame with its seq/slot prelude.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "net/chaos.h"
#include "sim/message.h"

namespace simulcast::net {

enum class TransportKind {
  kInProcess,  ///< slot-indexed in-memory mailboxes (default; bit-identical)
  kSocket,     ///< loopback TCP endpoints + epoll event loop (verdict-identical)
  kProcess,    ///< per-party worker processes under a coordinator (net/procs.h)
};

/// "inproc" / "socket" / "process" — the spelling of the --transport= knob.
[[nodiscard]] std::string_view transport_kind_name(TransportKind kind) noexcept;

/// Parses a --transport= value; throws UsageError on anything else.
[[nodiscard]] TransportKind parse_transport_kind(std::string_view text);

/// Process-wide default backend, TransportKind::kInProcess unless
/// exec::install_run_config (the --transport= knob) or an embedder such as
/// the benchmark harness installed another.  exec::run_config() reports it
/// as its transport, and sim::ExecutionConfig's default member initializer
/// reads it, so every execution that does not explicitly pick a backend
/// follows it.  The one run condition that remains a process default.
[[nodiscard]] TransportKind default_transport_kind() noexcept;

/// Installs the process-wide default.  Not thread-safe: call from main
/// before spawning batches.
void set_default_transport_kind(TransportKind kind) noexcept;

/// Default stall deadline for every blocking network wait: the socket
/// backend's collect() event loop and the process coordinator's handshake /
/// reply reads all abandon the execution (ProtocolError) after this long
/// without progress.  sim::ExecutionConfig::net_timeout carries the
/// effective value down to the backends; the --net-timeout=S knob
/// (fractional seconds accepted) shortens it so tests fail in seconds, not
/// minutes.  Under chaos a process channel derives a tighter deadline from
/// its Link's RTO and remaining budget (net/worker.h stall_deadline()),
/// and a socket channel that spends its budget fails at that RTO.
inline constexpr std::chrono::milliseconds kDefaultNetTimeout{30000};

/// Per-execution transport accounting.  Byte/frame counts are
/// deterministic (pure functions of the traffic); the timings are
/// wall-clock and vary run to run, like every latency metric.  Only the
/// socket backend measures them (the in-process mailboxes encode nothing
/// and leave them 0).  They accumulate in nanoseconds so sub-microsecond
/// encodes are not lost; record_transport_metrics adds them to the
/// registry's microsecond counters with the remainder carried per thread
/// (obs::add_microseconds).
struct WireStats {
  std::size_t frames = 0;                    ///< frames moved through the transport
  std::size_t bytes_on_wire = 0;             ///< serialized frame bytes (wire encoding)
  std::chrono::nanoseconds serialize{0};     ///< time spent encoding frames
  std::chrono::nanoseconds deserialize{0};   ///< time spent decoding frames
  std::chrono::nanoseconds flush{0};         ///< cumulative collect() latency
};

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual TransportKind kind() const noexcept = 0;

  /// Prepares mailboxes for an n-party execution with `slots` delivery
  /// slots (rounds(n) + 1: one per round plus the final delivery).
  virtual void open(std::size_t n, std::size_t slots) = 0;

  /// Hands one message to the transport for delivery slot `slot`.
  virtual void submit(sim::Message m, std::size_t slot) = 0;

  /// Returns every message submitted for `slot`, in submission order.
  /// Each slot is collected at most once.
  [[nodiscard]] virtual std::vector<sim::Message> collect(std::size_t slot) = 0;

  /// Releases transport resources (idempotent).
  virtual void close() {}

  [[nodiscard]] const WireStats& stats() const noexcept { return stats_; }

 protected:
  WireStats stats_;
};

/// Backend factory.  The in-process backend is allocation-cheap and
/// ignores `chaos` — there is no wire to disturb, which is also why
/// recoverable chaos cannot change results: the chaos-free backend defines
/// them.  The socket backend opens its endpoints lazily in open(), gives
/// up on a stalled collect() after `net_timeout`, and disturbs the
/// channels `chaos` targets with a DRBG forked from `seed`.
[[nodiscard]] std::unique_ptr<Transport> make_transport(
    TransportKind kind, std::chrono::milliseconds net_timeout = kDefaultNetTimeout,
    const ChaosSpec& chaos = {}, std::uint64_t seed = 0);

/// Feeds the net.* registry metrics from one execution's stats: frames and
/// bytes on wire for every backend, serialize / deserialize time and flush
/// latency only for the socket backend, the one that times them.  Called
/// by the scheduler once per execution; a transport that moved no frames
/// records nothing.
void record_transport_metrics(const Transport& transport);

}  // namespace simulcast::net
