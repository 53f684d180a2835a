#include "net/transport.h"

#include <atomic>
#include <string>

#include "base/error.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace simulcast::net {

namespace {

// Relaxed atomic so concurrent Runner workers constructing ExecutionConfigs
// read the knob without synchronization; it is written only from main
// before batches start.
std::atomic<TransportKind> g_default_kind{TransportKind::kInProcess};

/// The extracted pending-delivery vectors of the pre-transport scheduler:
/// submit is a vector push, collect is a vector move, ordering is
/// submission order.  Bit-identical to the old in_flight hand-off by
/// construction.  Wire accounting prices each frame with encoded_size()
/// instead of serializing it, so the hot path stays allocation-free.
class InProcessTransport final : public Transport {
 public:
  [[nodiscard]] TransportKind kind() const noexcept override {
    return TransportKind::kInProcess;
  }

  void open(std::size_t slots) override { pending_.resize(slots); }

  void submit(sim::Message m, std::size_t slot) override {
    if (slot >= pending_.size()) throw UsageError("InProcessTransport: slot out of range");
    ++stats_.frames;
    stats_.bytes_on_wire += encoded_size(m);
    pending_[slot].push_back(std::move(m));
  }

  [[nodiscard]] std::vector<sim::Message> collect(std::size_t slot) override {
    if (slot >= pending_.size()) throw UsageError("InProcessTransport: slot out of range");
    return std::move(pending_[slot]);
  }

 private:
  std::vector<std::vector<sim::Message>> pending_;
};

}  // namespace

std::string_view transport_kind_name(TransportKind kind) noexcept {
  switch (kind) {
    case TransportKind::kSocket: return "socket";
    case TransportKind::kProcess: return "process";
    case TransportKind::kInProcess: break;
  }
  return "inproc";
}

TransportKind parse_transport_kind(std::string_view text) {
  if (text == "inproc") return TransportKind::kInProcess;
  if (text == "socket") return TransportKind::kSocket;
  if (text == "process") return TransportKind::kProcess;
  throw UsageError("unknown transport '" + std::string(text) +
                   "' (expected inproc|socket|process)");
}

TransportKind default_transport_kind() noexcept {
  return g_default_kind.load(std::memory_order_relaxed);
}

void set_default_transport_kind(TransportKind kind) noexcept {
  g_default_kind.store(kind, std::memory_order_relaxed);
}

std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          std::chrono::milliseconds net_timeout,
                                          const ChaosSpec& chaos, std::uint64_t seed) {
  if (kind == TransportKind::kSocket)
    return std::make_unique<SocketTransport>(net_timeout, chaos, seed);
  // Process mode moves *party machines* out of process, not the scheduler's
  // slot mailboxes: inter-round traffic still lives with the coordinator,
  // so the mailbox backend is the bit-identical in-process one and the real
  // kernel crossings happen on the coordinator<->worker channels
  // (net/procs.h), accounted as proc.* metrics.
  return std::make_unique<InProcessTransport>();
}

void record_transport_metrics(const Transport& transport) {
  const WireStats& stats = transport.stats();
  if (stats.frames == 0) return;
  static obs::Counter& frames = obs::Metrics::global().counter("net.frames");
  static obs::Counter& bytes = obs::Metrics::global().counter("net.bytes_on_wire");
  frames.add(stats.frames);
  bytes.add(stats.bytes_on_wire);
  if (transport.kind() != TransportKind::kSocket) return;
  static obs::Counter& serialize_us = obs::Metrics::global().counter("net.serialize_us");
  static obs::Counter& deserialize_us = obs::Metrics::global().counter("net.deserialize_us");
  static obs::Histogram& flush = obs::Metrics::global().histogram("net.flush_us_per_execution");
  thread_local std::uint64_t serialize_carry_ns = 0;
  thread_local std::uint64_t deserialize_carry_ns = 0;
  obs::add_microseconds(serialize_us, stats.serialize, serialize_carry_ns);
  obs::add_microseconds(deserialize_us, stats.deserialize, deserialize_carry_ns);
  flush.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(stats.flush).count()));
}

}  // namespace simulcast::net
