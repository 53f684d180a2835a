#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <system_error>

#include "base/error.h"
#include "net/wire.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace simulcast::net {

namespace {

/// seq + slot prelude in front of every wire frame on a channel stream.
constexpr std::size_t kRecordPrelude = 16;

/// DeferredTx::release value meaning "released by hold countdown, not time".
constexpr auto kNoRelease = std::chrono::steady_clock::time_point::max();

/// Retransmit backoff bounds for collect()'s no-progress recovery loop.
constexpr std::chrono::milliseconds kRetryFloor{25};
constexpr std::chrono::milliseconds kRetryCeil{1600};

[[noreturn]] void sys_error(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), "SocketTransport: " + what);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    sys_error("fcntl(O_NONBLOCK)");
}

void append_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

std::uint64_t read_u64(const std::uint8_t* data) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8)
    v |= static_cast<std::uint64_t>(data[shift / 8]) << shift;
  return v;
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

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

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

  ledger_.assign(slots, {});
  seen_.assign(slots, {});
  deferred_.clear();

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) sys_error("epoll_create1");

  // n party channels + the broadcast channel + the functionality channel.
  channels_.clear();
  channels_.resize(n_ + 2);
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel& ch = channels_[i];
    const int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listener < 0) sys_error("socket(listener)");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(listener, 1) < 0) {
      abort_close(listener);
      sys_error("bind/listen(loopback)");
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
      abort_close(listener);
      sys_error("getsockname");
    }
    ch.send_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (ch.send_fd < 0) {
      abort_close(listener);
      sys_error("socket(send)");
    }
    if (::connect(ch.send_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      abort_close(listener);
      sys_error("connect(loopback)");
    }
    ch.recv_fd = ::accept(listener, nullptr, nullptr);
    abort_close(listener);  // one connection per channel; the listener is done
    if (ch.recv_fd < 0) sys_error("accept");

    const int one = 1;
    (void)::setsockopt(ch.send_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    set_nonblocking(ch.send_fd);
    set_nonblocking(ch.recv_fd);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = static_cast<std::uint64_t>(i) * 2;  // even = readable
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ch.recv_fd, &ev) < 0) sys_error("epoll_ctl(ADD)");
  }
  if (chaos_enabled_) {
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      // party:ID targets that party's channel only; the broadcast and
      // functionality channels (n_, n_ + 1) are disturbed only by an
      // all-party spec.
      const bool targeted = chaos_spec_.party == ChaosSpec::kAllParties ||
                            (i < n_ && chaos_spec_.applies_to(i));
      if (targeted)
        channels_[i].chaos =
            std::make_unique<Chaos>(chaos_spec_, chaos_seed_, "socket:" + std::to_string(i));
    }
  }
  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kDebug, "net-connect",
                   {{"parties", n_}, {"channels", channels_.size()}, {"slots", slots}});
}

void SocketTransport::update_write_interest(std::size_t index, bool want) {
  Channel& ch = channels_[index];
  if (ch.want_write == want) return;
  epoll_event ev{};
  ev.events = EPOLLOUT;
  ev.data.u64 = static_cast<std::uint64_t>(index) * 2 + 1;  // odd = writable
  if (::epoll_ctl(epoll_fd_, want ? EPOLL_CTL_ADD : EPOLL_CTL_DEL, ch.send_fd, &ev) < 0)
    sys_error("epoll_ctl(EPOLLOUT)");
  ch.want_write = want;
}

void SocketTransport::submit(sim::Message m, std::size_t slot) {
  if (channels_.empty()) throw UsageError("SocketTransport: submit before open");
  if (slot >= expected_.size()) throw UsageError("SocketTransport: slot out of range");
  const std::size_t index = channel_for(m.to);

  const auto start = std::chrono::steady_clock::now();
  encode_buf_.clear();
  append_u64(encode_buf_, next_seq_++);
  append_u64(encode_buf_, static_cast<std::uint64_t>(slot));
  WireWriter(encode_buf_).message(m);
  stats_.serialize_us += elapsed_us(start);
  ++stats_.frames;
  stats_.bytes_on_wire += encode_buf_.size();
  ++expected_[slot];

  Channel& ch = channels_[index];
  if (ch.chaos != nullptr) {
    submit_chaotic(index, slot);
    return;
  }
  ch.outbox.insert(ch.outbox.end(), encode_buf_.begin(), encode_buf_.end());
  drain_channel_writes(index);
}

void SocketTransport::submit_chaotic(std::size_t index, std::size_t slot) {
  Channel& ch = channels_[index];
  const std::uint64_t seq = next_seq_ - 1;  // assigned by submit()
  const auto now = std::chrono::steady_clock::now();
  // Older hold-gated deferrals on this channel count this frame as one of
  // the "later" frames they wait to be passed by.
  for (DeferredTx& d : deferred_)
    if (d.channel == index && d.release == kNoRelease && d.hold > 0) --d.hold;

  const Chaos::Verdict verdict = ch.chaos->next_verdict();
  if (verdict.drop) {
    ++chaos_stats_.dropped;
    ledger_[slot].push_back({seq, index, encode_buf_, true});
  } else {
    Bytes tx = encode_buf_;
    bool harmed = false;
    // The seq|slot prelude and the wire length prefix stay intact —
    // packet-granularity corruption, so stream framing and slot parking
    // never desynchronize and the CRC check owns detection.
    if (verdict.corrupt && tx.size() > kRecordPrelude + 4 &&
        ch.chaos->corrupt_bytes(tx.data() + kRecordPrelude + 4,
                                tx.size() - kRecordPrelude - 4) > 0) {
      harmed = true;
      ++chaos_stats_.corrupted;
    }
    if (verdict.duplicate) ++chaos_stats_.duplicated;
    const bool defer = verdict.delay.count() > 0 || verdict.hold > 0;
    // Only frames that might never arrive on their own need the ledger.
    if (defer || harmed) ledger_[slot].push_back({seq, index, encode_buf_, harmed});
    if (defer) {
      DeferredTx d;
      d.seq = seq;
      d.channel = index;
      d.bytes = std::move(tx);
      d.duplicate = verdict.duplicate;
      if (verdict.delay.count() > 0) {
        d.release = now + verdict.delay;
        ++chaos_stats_.delayed;
      } else {
        d.hold = verdict.hold;
        d.release = kNoRelease;
        ++chaos_stats_.reordered;
      }
      deferred_.push_back(std::move(d));
    } else {
      ch.outbox.insert(ch.outbox.end(), tx.begin(), tx.end());
      if (verdict.duplicate) ch.outbox.insert(ch.outbox.end(), tx.begin(), tx.end());
      drain_channel_writes(index);
    }
  }
  pump_deferred(now);
}

void SocketTransport::pump_deferred(std::chrono::steady_clock::time_point now) {
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    const bool due = it->release == kNoRelease ? it->hold == 0 : it->release <= now;
    if (!due) {
      ++it;
      continue;
    }
    Channel& ch = channels_[it->channel];
    ch.outbox.insert(ch.outbox.end(), it->bytes.begin(), it->bytes.end());
    if (it->duplicate) ch.outbox.insert(ch.outbox.end(), it->bytes.begin(), it->bytes.end());
    drain_channel_writes(it->channel);
    it = deferred_.erase(it);
  }
}

void SocketTransport::retransmit_missing(std::size_t slot) {
  std::vector<std::vector<LedgerEntry*>> missing(channels_.size());
  bool any = false;
  for (LedgerEntry& e : ledger_[slot]) {
    if (seen_[slot].count(e.seq) != 0) continue;
    missing[e.channel].push_back(&e);
    any = true;
  }
  if (!any) return;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    if (missing[i].empty()) continue;
    Channel& ch = channels_[i];
    if (ch.chaos_dead) continue;
    // The budget meters recovery from frames chaos harmed; a deferral that
    // merely has not released yet retransmits for free (the clean copy
    // supersedes it).
    const bool charged = std::any_of(missing[i].begin(), missing[i].end(),
                                     [](const LedgerEntry* e) { return e->harmed; });
    if (charged) {
      if (ch.budget_used >= ch.chaos->spec().budget) {
        ch.chaos_dead = true;
        ++chaos_stats_.budget_exhausted;
        if (obs::log_enabled())
          obs::log_event(obs::LogLevel::kWarn, "net-chaos-budget",
                         {{"channel", i}, {"budget", ch.chaos->spec().budget}});
        continue;
      }
      ++ch.budget_used;
    }
    std::size_t frames = 0;
    for (LedgerEntry* e : missing[i]) {
      ch.outbox.insert(ch.outbox.end(), e->bytes.begin(), e->bytes.end());
      e->harmed = false;
      ++chaos_stats_.retransmits;
      ++frames;
      for (auto it = deferred_.begin(); it != deferred_.end();)
        it = it->seq == e->seq ? deferred_.erase(it) : std::next(it);
    }
    drain_channel_writes(i);
    if (obs::log_enabled())
      obs::log_event(obs::LogLevel::kInfo, "net-retransmit",
                     {{"slot", slot}, {"channel", i}, {"frames", frames}});
  }
}

bool SocketTransport::any_channel_budget_dead() const noexcept {
  return std::any_of(channels_.begin(), channels_.end(),
                     [](const Channel& ch) { return ch.chaos_dead; });
}

void SocketTransport::drain_channel_writes(std::size_t index) {
  Channel& ch = channels_[index];
  while (ch.outbox_head < ch.outbox.size()) {
    const ssize_t wrote = ::send(ch.send_fd, ch.outbox.data() + ch.outbox_head,
                                 ch.outbox.size() - ch.outbox_head, MSG_NOSIGNAL);
    if (wrote > 0) {
      ch.outbox_head += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_write_interest(index, true);
      return;
    }
    if (wrote < 0 && errno == EINTR) continue;
    sys_error("send");
  }
  ch.outbox.clear();
  ch.outbox_head = 0;
  update_write_interest(index, false);
}

void SocketTransport::pump_writes() {
  for (std::size_t i = 0; i < channels_.size(); ++i)
    if (channels_[i].outbox_head < channels_[i].outbox.size()) drain_channel_writes(i);
}

void SocketTransport::on_readable(std::size_t index) {
  Channel& ch = channels_[index];
  while (true) {
    const std::size_t old_size = ch.inbuf.size();
    ch.inbuf.resize(old_size + 16384);
    const ssize_t got = ::read(ch.recv_fd, ch.inbuf.data() + old_size, 16384);
    if (got > 0) {
      ch.inbuf.resize(old_size + static_cast<std::size_t>(got));
      continue;
    }
    ch.inbuf.resize(old_size);
    if (got == 0) throw ProtocolError("SocketTransport: channel closed mid-execution");
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    sys_error("read");
  }
  parse_channel(index);
}

void SocketTransport::parse_channel(std::size_t index) {
  Channel& ch = channels_[index];
  const auto start = std::chrono::steady_clock::now();
  while (ch.inbuf.size() - ch.inbuf_head >= kRecordPrelude + 4) {
    const std::uint8_t* record = ch.inbuf.data() + ch.inbuf_head;
    const std::size_t avail = ch.inbuf.size() - ch.inbuf_head;
    const std::size_t frame = frame_size_hint(record + kRecordPrelude, avail - kRecordPrelude);
    if (frame == 0 || avail < kRecordPrelude + frame) break;  // wait for more bytes
    const std::uint64_t seq = read_u64(record);
    const std::uint64_t slot = read_u64(record + 8);
    if (slot >= parked_.size())
      throw ProtocolError("SocketTransport: frame addressed to slot " + std::to_string(slot) +
                          " of " + std::to_string(parked_.size()));
    WireReader reader(record + kRecordPrelude, frame);
    if (chaos_enabled_) {
      // A CRC reject is a chaos bit-flip, not a protocol violation: count
      // it and let retransmission recover the frame.  Duplicates (dup
      // verdicts, crossed retransmits) are dropped by sequence number.
      bool rejected = false;
      sim::Message message;
      try {
        message = reader.message();
      } catch (const ChecksumError&) {
        ++chaos_stats_.corrupt_rejected;
        rejected = true;
      }
      if (!rejected && seen_[slot].insert(seq).second)
        parked_[slot].push_back({seq, std::move(message)});
    } else {
      parked_[slot].push_back({seq, reader.message()});
    }
    ch.inbuf_head += kRecordPrelude + frame;
  }
  // Compact once the parsed prefix dominates the buffer, keeping reassembly
  // amortized-linear without erasing on every frame.
  if (ch.inbuf_head == ch.inbuf.size()) {
    ch.inbuf.clear();
    ch.inbuf_head = 0;
  } else if (ch.inbuf_head > 65536 && ch.inbuf_head > ch.inbuf.size() / 2) {
    ch.inbuf.erase(ch.inbuf.begin(),
                   ch.inbuf.begin() + static_cast<std::ptrdiff_t>(ch.inbuf_head));
    ch.inbuf_head = 0;
  }
  stats_.deserialize_us += elapsed_us(start);
}

std::vector<sim::Message> SocketTransport::collect(std::size_t slot) {
  if (channels_.empty()) throw UsageError("SocketTransport: collect before open");
  if (slot >= parked_.size()) throw UsageError("SocketTransport: slot out of range");
  obs::TraceSpan span("net-flush");
  span.arg("slot", slot);
  const auto start = std::chrono::steady_clock::now();

  pump_writes();
  if (chaos_enabled_) pump_deferred(std::chrono::steady_clock::now());
  auto last_progress = std::chrono::steady_clock::now();
  std::size_t seen = parked_[slot].size();
  auto backoff = kRetryFloor;
  auto retry_at = last_progress + backoff;
  while (parked_[slot].size() < expected_[slot]) {
    epoll_event events[16];
    // Under chaos the loop must wake for deferred releases and retransmit
    // deadlines, not only kernel readiness.
    const int ready = ::epoll_wait(epoll_fd_, events, 16, chaos_enabled_ ? 5 : 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      sys_error("epoll_wait");
    }
    for (int e = 0; e < ready; ++e) {
      const std::uint64_t key = events[e].data.u64;
      const std::size_t index = static_cast<std::size_t>(key / 2);
      if (key % 2 == 0)
        on_readable(index);
      else
        drain_channel_writes(index);
    }
    const auto now = std::chrono::steady_clock::now();
    if (chaos_enabled_) pump_deferred(now);
    if (parked_[slot].size() != seen) {
      seen = parked_[slot].size();
      last_progress = now;
      backoff = kRetryFloor;
      retry_at = now + backoff;
    } else {
      if (chaos_enabled_ && now >= retry_at) {
        retransmit_missing(slot);
        backoff = std::min(backoff * 2, kRetryCeil);
        retry_at = now + backoff;
      }
      if (now - last_progress > stall_timeout_) {
        if (obs::log_enabled())
          obs::log_event(obs::LogLevel::kError, "net-stall",
                         {{"slot", slot},
                          {"parked", parked_[slot].size()},
                          {"expected", expected_[slot]}});
        std::string what = "SocketTransport: flush stalled at slot " + std::to_string(slot) +
                           " (" + std::to_string(parked_[slot].size()) + "/" +
                           std::to_string(expected_[slot]) + " frames)";
        if (any_channel_budget_dead())
          what += "; chaos retransmit budget exhausted — the wire was too hostile";
        throw ProtocolError(what);
      }
    }
  }

  // The kernel interleaves channels arbitrarily; delivery order must not
  // depend on it.  Reordering by submission sequence number restores the
  // in-process backend's ordering exactly.
  std::vector<Parked>& bucket = parked_[slot];
  std::sort(bucket.begin(), bucket.end(),
            [](const Parked& a, const Parked& b) { return a.seq < b.seq; });
  std::vector<sim::Message> out;
  out.reserve(bucket.size());
  for (Parked& p : bucket) out.push_back(std::move(p.message));
  bucket.clear();
  bucket.shrink_to_fit();
  if (chaos_enabled_) {
    ledger_[slot].clear();
    ledger_[slot].shrink_to_fit();
    seen_[slot].clear();
  }

  const std::uint64_t us = elapsed_us(start);
  stats_.flush_us += us;
  span.arg("frames", out.size());
  span.arg("us", us);
  return out;
}

void SocketTransport::configure_chaos(const ChaosSpec& spec, std::uint64_t seed) {
  if (!channels_.empty())
    throw UsageError("SocketTransport: configure_chaos must precede open");
  spec.validate();
  chaos_enabled_ = spec.enabled();
  chaos_spec_ = spec;
  chaos_seed_ = seed;
}

void SocketTransport::close() {
  if (!channels_.empty() && obs::log_enabled())
    obs::log_event(obs::LogLevel::kDebug, "net-abort-close", {{"channels", channels_.size()}});
  for (Channel& ch : channels_) {
    abort_close(ch.send_fd);
    abort_close(ch.recv_fd);
    ch.send_fd = -1;
    ch.recv_fd = -1;
  }
  channels_.clear();
  if (epoll_fd_ >= 0) {
    (void)::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  ledger_.clear();
  seen_.clear();
  deferred_.clear();
  if (chaos_stats_.any()) {
    record_chaos_metrics(chaos_stats_);
    chaos_stats_ = ChaosStats{};
  }
}

}  // namespace simulcast::net
