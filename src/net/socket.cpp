#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string>
#include <system_error>

#include "base/error.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace simulcast::net {

namespace {

/// The record type of a frame on a channel (the only type it carries).
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

std::size_t SocketTransport::channel_for(sim::PartyId to) const {
  if (to == sim::kBroadcast) return n_;
  if (to == sim::kFunctionality) return n_ + 1;
  if (to >= n_) throw UsageError("SocketTransport: destination out of range");
  return to;
}

void SocketTransport::open(std::size_t n, std::size_t slots) {
  close();  // re-open() recycles the object
  n_ = n;
  expected_.assign(slots, 0);
  parked_.assign(slots, {});
  next_seq_ = 0;
  stats_ = WireStats{};

  // n party channels + the broadcast channel + the functionality channel.
  links_.resize(2 * (n_ + 2));
  for (std::size_t i = 0; i < n_ + 2; ++i) {
    const auto [send_fd, recv_fd] = loopback_tcp_pair();
    Link& tx = links_[2 * i] = Link(send_fd);
    Link& rx = links_[2 * i + 1] = Link(recv_fd);
    const std::string label = "socket:" + std::to_string(i);
    // party:ID targets that party's channel only; the broadcast and
    // functionality channels (n_, n_ + 1) are disturbed only by an
    // all-party spec.
    const bool targeted = chaos_.enabled() && (chaos_.party == ChaosSpec::kAllParties ||
                                               (i < n_ && chaos_.applies_to(i)));
    if (targeted) {
      tx.enable_chaos(chaos_, seed_, label);
      rx.enable_chaos(chaos_, seed_, label + ":rx");
    } else {
      tx.set_label(label);
      rx.set_label(label + ":rx");
    }
  }
  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kDebug, "net-connect",
                   {{"parties", n_}, {"channels", n_ + 2}, {"slots", slots}});
}

void SocketTransport::submit(sim::Message m, std::size_t slot) {
  if (links_.empty()) throw UsageError("SocketTransport: submit before open");
  if (slot >= expected_.size()) throw UsageError("SocketTransport: slot out of range");
  const std::size_t index = channel_for(m.to);

  const auto start = Link::Clock::now();
  encode_buf_.clear();
  ByteWriter w(encode_buf_);
  w.u64(next_seq_++);
  w.u64(static_cast<std::uint64_t>(slot));
  write_message(w, m);
  stats_.serialize += Link::Clock::now() - start;
  ++stats_.frames;
  stats_.bytes_on_wire += encode_buf_.size();
  ++expected_[slot];

  if (!links_[2 * index].send(kFrameRecord, encode_buf_))
    throw ProtocolError("SocketTransport: channel closed mid-execution");
}

void SocketTransport::park(const Link::Record& record) {
  if (record.type != kFrameRecord) throw ProtocolError("SocketTransport: malformed channel record");
  ByteReader r(record.body);
  const std::uint64_t seq = r.u64();
  const std::uint64_t slot = r.u64();
  if (slot >= parked_.size())
    throw ProtocolError("SocketTransport: frame addressed to slot " + std::to_string(slot) +
                        " of " + std::to_string(parked_.size()));
  sim::Message message = read_message(r);
  if (!r.done()) throw ProtocolError("SocketTransport: trailing bytes after a frame");
  parked_[slot].push_back({seq, std::move(message)});
}

void SocketTransport::take_delivered(std::size_t slot) {
  const auto start = Link::Clock::now();
  for (std::size_t key = 0; key < links_.size(); ++key) {
    Link& l = links_[key];
    // A sending end only ever reads acks, which next() absorbs.
    while (const std::optional<Link::Record> record = l.next()) park(*record);
    if (l.dead())
      throw ProtocolError("SocketTransport: slot " + std::to_string(slot) + " abandoned (" +
                          std::to_string(parked_[slot].size()) + "/" +
                          std::to_string(expected_[slot]) +
                          " frames): chaos retransmit budget exhausted on channel " +
                          std::to_string(key / 2) + " — the wire was too hostile");
    if (l.closed()) throw ProtocolError("SocketTransport: channel closed mid-execution");
  }
  stats_.deserialize += Link::Clock::now() - start;
}

std::vector<sim::Message> SocketTransport::collect(std::size_t slot) {
  if (links_.empty()) throw UsageError("SocketTransport: collect before open");
  if (slot >= parked_.size()) throw UsageError("SocketTransport: slot out of range");
  obs::TraceSpan span("net-flush");
  span.arg("slot", slot);
  const auto start = Link::Clock::now();

  std::vector<Parked>& bucket = parked_[slot];
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

  // The kernel interleaves channels arbitrarily; delivery order must not
  // depend on it.  Reordering by submission sequence number restores the
  // in-process backend's ordering exactly.
  std::sort(bucket.begin(), bucket.end(),
            [](const Parked& a, const Parked& b) { return a.seq < b.seq; });
  std::vector<sim::Message> out;
  out.reserve(bucket.size());
  for (Parked& p : bucket) out.push_back(std::move(p.message));
  bucket.clear();
  bucket.shrink_to_fit();

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
  if (!links_.empty() && obs::log_enabled())
    obs::log_event(obs::LogLevel::kDebug, "net-abort-close", {{"channels", links_.size() / 2}});
  record_chaos_metrics(chaos_stats());
  for (const Link& l : links_) abort_close(l.fd());
  links_.clear();
}

}  // namespace simulcast::net
