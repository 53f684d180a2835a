#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <string>
#include <system_error>

#include "base/error.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace simulcast::net {

namespace {

/// The record type of a frame on the stream (the only type it carries).
constexpr std::uint8_t kFrameRecord = 1;

[[noreturn]] void sys_error(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), "SocketTransport: " + what);
}

/// Abort-close: SO_LINGER with a zero timeout resets the connection
/// instead of parking it in TIME_WAIT.  A campaign opens tens of thousands
/// of loopback connections; orderly closes would exhaust ephemeral ports.
void abort_close(int fd) {
  if (fd < 0) return;
  struct linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  (void)::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
  (void)::close(fd);
}

}  // namespace

std::pair<int, int> loopback_tcp_pair() {
  const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener < 0) sys_error("socket(listener)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  socklen_t addr_len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 1) < 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    abort_close(listener);
    sys_error("bind/listen(loopback)");
  }
  const int connecting = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (connecting < 0 ||
      ::connect(connecting, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    abort_close(connecting);
    abort_close(listener);
    errno = err;
    sys_error("connect(loopback)");
  }
  const int accepted = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
  const int err = errno;
  abort_close(listener);  // one connection per pair; the listener is done
  if (accepted < 0) {
    abort_close(connecting);
    errno = err;
    sys_error("accept");
  }
  // Records (and acks) are small and latency-bound: no Nagle delay.
  const int one = 1;
  (void)::setsockopt(connecting, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)::setsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return {connecting, accepted};
}

SocketTransport::SocketTransport(std::chrono::milliseconds stall_timeout,
                                 const ChaosSpec& chaos, std::uint64_t seed)
    : stall_timeout_(stall_timeout), chaos_(chaos), seed_(seed) {
  chaos_.validate();
}

SocketTransport::~SocketTransport() {
  close();
}

void SocketTransport::open(std::size_t slots) {
  close();  // re-open() recycles the object
  expected_.assign(slots, 0);
  parked_.assign(slots, {});
  stats_ = WireStats{};

  const auto [send_fd, recv_fd] = loopback_tcp_pair();
  links_ = {Link(send_fd), Link(recv_fd)};
  if (chaos_.enabled()) {
    links_[0].enable_chaos(chaos_, seed_, "socket");
    links_[1].enable_chaos(chaos_, seed_, "socket:rx");
  } else {
    links_[0].set_label("socket");
    links_[1].set_label("socket:rx");
  }
  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kDebug, "net-connect", {{"slots", slots}});
}

void SocketTransport::submit(sim::Message m, std::size_t slot) {
  if (links_[0].fd() < 0) throw UsageError("SocketTransport: submit before open");
  if (slot >= expected_.size()) throw UsageError("SocketTransport: slot out of range");

  const auto start = Link::Clock::now();
  encode_buf_.clear();
  ByteWriter w(encode_buf_);
  w.u64(static_cast<std::uint64_t>(slot));
  write_message(w, m);
  stats_.serialize += Link::Clock::now() - start;
  ++stats_.frames;
  stats_.bytes_on_wire += encode_buf_.size();
  ++expected_[slot];

  if (!links_[0].send(kFrameRecord, encode_buf_, chaos_.applies_to(m.to)))
    throw ProtocolError("SocketTransport: stream closed mid-execution");
}

void SocketTransport::take_delivered(std::size_t slot) {
  const auto start = Link::Clock::now();
  for (Link& l : links_) {
    // The sending end only ever reads acks, which next() absorbs.
    while (const std::optional<Link::Record> record = l.next()) {
      if (record->type != kFrameRecord)
        throw ProtocolError("SocketTransport: malformed stream record");
      ByteReader r(record->body);
      const std::uint64_t at = r.u64();
      if (at >= parked_.size())
        throw ProtocolError("SocketTransport: frame addressed to slot " + std::to_string(at) +
                            " of " + std::to_string(parked_.size()));
      parked_[at].push_back(read_message(r));
      if (!r.done()) throw ProtocolError("SocketTransport: trailing bytes after a frame");
    }
    if (l.dead())
      throw ProtocolError("SocketTransport: slot " + std::to_string(slot) + " abandoned (" +
                          std::to_string(parked_[slot].size()) + "/" +
                          std::to_string(expected_[slot]) +
                          " frames): chaos retransmit budget exhausted on the stream — the "
                          "wire was too hostile");
    if (l.closed()) throw ProtocolError("SocketTransport: stream closed mid-execution");
  }
  stats_.deserialize += Link::Clock::now() - start;
}

std::vector<sim::Message> SocketTransport::collect(std::size_t slot) {
  if (links_[0].fd() < 0) throw UsageError("SocketTransport: collect before open");
  if (slot >= parked_.size()) throw UsageError("SocketTransport: slot out of range");
  obs::TraceSpan span("net-flush");
  span.arg("slot", slot);
  const auto start = Link::Clock::now();

  std::vector<sim::Message>& bucket = parked_[slot];
  auto last_progress = start;
  std::size_t seen = bucket.size();
  while (bucket.size() < expected_[slot]) {
    if (Link::Clock::now() - last_progress > stall_timeout_) {
      if (obs::log_enabled())
        obs::log_event(obs::LogLevel::kError, "net-stall",
                       {{"slot", slot}, {"parked", bucket.size()}, {"expected", expected_[slot]}});
      throw ProtocolError("SocketTransport: flush stalled at slot " + std::to_string(slot) +
                          " (" + std::to_string(bucket.size()) + "/" +
                          std::to_string(expected_[slot]) + " frames)");
    }
    wait_links(links_, last_progress + stall_timeout_);
    take_delivered(slot);
    if (bucket.size() != seen) {
      seen = bucket.size();
      last_progress = Link::Clock::now();
    }
  }
  // One stream: the bucket holds the slot's frames in submission order.
  std::vector<sim::Message> out = std::move(bucket);

  const auto elapsed = Link::Clock::now() - start;
  stats_.flush += elapsed;
  span.arg("frames", out.size());
  span.arg("us", static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()));
  return out;
}

ChaosStats SocketTransport::chaos_stats() const {
  ChaosStats total;
  for (const Link& l : links_) total += l.chaos_stats();
  return total;
}

void SocketTransport::close() {
  if (links_[0].fd() >= 0 && obs::log_enabled())
    obs::log_event(obs::LogLevel::kDebug, "net-abort-close");
  record_chaos_metrics(chaos_stats());
  for (const Link& l : links_) abort_close(l.fd());
  links_ = {Link(), Link()};
}

}  // namespace simulcast::net
