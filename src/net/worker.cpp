#include "net/worker.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>
#include <system_error>

#include "base/error.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/log.h"

namespace simulcast::net {

namespace {

WorkerLoop g_worker_loop = nullptr;

/// Reliability-record layout (see the header): rec_len covers kind..crc,
/// the CRC covers kind..rest.
constexpr std::uint8_t kRecData = 1;
constexpr std::uint8_t kRecAck = 2;
constexpr std::size_t kRecOverhead = 1 + 8 + 4;  ///< kind + seq + crc

/// RTO bounds: the floor is generous relative to a loopback socketpair
/// round trip so an RTO firing with no chaos-harmed frame in flight (a
/// merely slow peer) stays rare — those retransmit for free (the
/// charged-vs-free budget rule keeps them harmless), but cheap noise is
/// still noise.  The ceiling bounds recovery latency under exponential
/// backoff.
constexpr std::chrono::milliseconds kRtoInitial{50};
constexpr std::chrono::milliseconds kRtoMax{1000};

[[noreturn]] void throw_sys(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Loads the little-endian u32 length prefix of a control frame.
std::uint32_t load_len(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

void store_len(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8)
    v |= static_cast<std::uint64_t>(p[shift / 8]) << shift;
  return v;
}

void append_u64(Bytes& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8)
    out.push_back(static_cast<std::uint8_t>(v >> shift));
}

constexpr auto kHoldGated = std::chrono::steady_clock::time_point::max();

}  // namespace

std::string_view proc_frame_name(ProcFrame type) noexcept {
  switch (type) {
    case ProcFrame::kHello: return "hello";
    case ProcFrame::kBegin: return "begin";
    case ProcFrame::kRound: return "round";
    case ProcFrame::kFinish: return "finish";
    case ProcFrame::kAck: return "ack";
    case ProcFrame::kOut: return "out";
    case ProcFrame::kFailed: return "failed";
    case ProcFrame::kOutput: return "output";
  }
  return "unknown";
}

void encode_worker_hello(const WorkerHello& hello, Bytes& out) {
  ByteWriter w(std::move(out));
  w.u32(kProcMagic);
  w.u8(kProcVersion);
  w.u64(hello.n);
  w.u64(hello.slot);
  w.u64(hello.k);
  w.u64(hello.seed);
  w.u64(hello.rounds);
  w.u8(hello.input ? 1 : 0);
  w.u8(hello.spectator ? 1 : 0);
  w.u8(hello.kill_enabled ? 1 : 0);
  w.u64(hello.kill_round);
  w.u64(hello.fault_digest);
  w.str(hello.protocol);
  w.str(hello.commitments);
  w.str(hello.chaos);
  out = w.take();
}

WorkerHello decode_worker_hello(const Bytes& body) {
  ByteReader r(body);
  if (r.u32() != kProcMagic) throw ProtocolError("worker hello: bad magic");
  const std::uint8_t version = r.u8();
  if (version != kProcVersion)
    throw ProtocolError("worker hello: protocol version " + std::to_string(version) +
                        " != " + std::to_string(kProcVersion));
  WorkerHello hello;
  hello.n = r.u64();
  hello.slot = r.u64();
  hello.k = r.u64();
  hello.seed = r.u64();
  hello.rounds = r.u64();
  hello.input = r.u8() != 0;
  hello.spectator = r.u8() != 0;
  hello.kill_enabled = r.u8() != 0;
  hello.kill_round = r.u64();
  hello.fault_digest = r.u64();
  hello.protocol = r.str();
  hello.commitments = r.str();
  hello.chaos = r.str();
  if (!r.done()) throw ProtocolError("worker hello: trailing bytes");
  return hello;
}

void encode_worker_ack(const WorkerAck& ack, Bytes& out) {
  ByteWriter w(std::move(out));
  w.u32(kProcMagic);
  w.u8(kProcVersion);
  w.u64(ack.slot);
  w.u64(ack.fault_digest);
  out = w.take();
}

WorkerAck decode_worker_ack(const Bytes& body) {
  ByteReader r(body);
  if (r.u32() != kProcMagic) throw ProtocolError("worker ack: bad magic");
  const std::uint8_t version = r.u8();
  if (version != kProcVersion)
    throw ProtocolError("worker ack: protocol version " + std::to_string(version) +
                        " != " + std::to_string(kProcVersion));
  WorkerAck ack;
  ack.slot = r.u64();
  ack.fault_digest = r.u64();
  if (!r.done()) throw ProtocolError("worker ack: trailing bytes");
  return ack;
}

bool WorkerChannel::send_all(const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t rc = ::send(fd_, data + sent, size - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw_sys("WorkerChannel: send");
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

bool WorkerChannel::write_plain(ProcFrame type, const Bytes& body) {
  std::uint8_t header[5];
  store_len(header, static_cast<std::uint32_t>(body.size() + 1));
  header[4] = static_cast<std::uint8_t>(type);
  // Two short writes instead of one coalesced buffer: control frames are
  // cold (a handful per party per round), clarity wins.
  if (!send_all(header, sizeof header)) return false;
  return body.empty() || send_all(body.data(), body.size());
}

bool WorkerChannel::write_reliable(ProcFrame type, const Bytes& body) {
  const auto now = std::chrono::steady_clock::now();
  // Older hold-gated deferrals count this frame as one of the "later"
  // frames they wait to be passed by — decremented before it goes out so a
  // hold of 1 really does land behind it.
  for (Deferred& d : deferred_)
    if (d.release == kHoldGated && d.hold > 0) --d.hold;

  const std::uint64_t seq = tx_next_++;
  Bytes record;
  record.reserve(4 + kRecOverhead + 1 + body.size());
  record.resize(4);
  store_len(record.data(), static_cast<std::uint32_t>(kRecOverhead + 1 + body.size()));
  record.push_back(kRecData);
  append_u64(record, seq);
  record.push_back(static_cast<std::uint8_t>(type));
  record.insert(record.end(), body.begin(), body.end());
  const std::uint32_t crc = crc32c(record.data() + 4, record.size() - 4);
  for (int shift = 0; shift < 32; shift += 8)
    record.push_back(static_cast<std::uint8_t>(crc >> shift));

  if (unacked_.empty()) rto_deadline_ = now + rto_;
  unacked_.push_back(Unacked{seq, std::move(record), now, false, false});
  Unacked& entry = unacked_.back();

  const Chaos::Verdict verdict = chaos_->next_verdict();
  bool ok = true;
  if (verdict.drop) {
    entry.harmed = true;
    ++stats_.dropped;
  } else {
    Bytes tx = entry.record;
    if (verdict.corrupt && chaos_->corrupt_bytes(tx.data() + 4, tx.size() - 4) > 0) {
      entry.harmed = true;
      ++stats_.corrupted;
    }
    if (verdict.duplicate) ++stats_.duplicated;
    if (verdict.delay.count() > 0 || verdict.hold > 0) {
      Deferred d;
      d.seq = seq;
      d.bytes = std::move(tx);
      d.duplicate = verdict.duplicate;
      if (verdict.delay.count() > 0) {
        d.release = now + verdict.delay;
        ++stats_.delayed;
      } else {
        d.hold = verdict.hold;
        d.release = kHoldGated;
        ++stats_.reordered;
      }
      deferred_.push_back(std::move(d));
    } else {
      ok = send_all(tx.data(), tx.size()) &&
           (!verdict.duplicate || send_all(tx.data(), tx.size()));
    }
  }
  const bool pumped = pump_deferred(now, false);
  return ok && pumped;
}

bool WorkerChannel::write_frame(ProcFrame type, const Bytes& body) {
  return reliable_ ? write_reliable(type, body) : write_plain(type, body);
}

bool WorkerChannel::send_ack() {
  std::uint8_t rec[4 + kRecOverhead];
  store_len(rec, kRecOverhead);
  rec[4] = kRecAck;
  for (int shift = 0; shift < 64; shift += 8)
    rec[5 + shift / 8] = static_cast<std::uint8_t>(rx_next_ >> shift);
  const std::uint32_t crc = crc32c(rec + 4, 1 + 8);
  for (int shift = 0; shift < 32; shift += 8)
    rec[13 + shift / 8] = static_cast<std::uint8_t>(crc >> shift);
  return send_all(rec, sizeof rec);
}

bool WorkerChannel::pump_deferred(std::chrono::steady_clock::time_point now, bool flush) {
  bool ok = true;
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    const bool due = flush || (it->release == kHoldGated ? it->hold == 0 : it->release <= now);
    if (!due) {
      ++it;
      continue;
    }
    ok = send_all(it->bytes.data(), it->bytes.size()) &&
         (!it->duplicate || send_all(it->bytes.data(), it->bytes.size())) && ok;
    it = deferred_.erase(it);
  }
  return ok;
}

bool WorkerChannel::retransmit_all(std::chrono::steady_clock::time_point now) {
  if (unacked_.empty()) return true;
  // A clean retransmission supersedes any still-deferred first try.
  deferred_.clear();
  const bool charged = std::any_of(unacked_.begin(), unacked_.end(),
                                   [](const Unacked& u) { return u.harmed; });
  if (charged) {
    if (budget_used_ >= budget()) {
      budget_dead_ = true;
      stats_.budget_exhausted = 1;
      if (obs::log_enabled())
        obs::log_event(obs::LogLevel::kWarn, "worker-chaos-budget",
                       {{"unacked", unacked_.size()}, {"budget", budget()}}, label_);
      return false;
    }
    ++budget_used_;
  }
  for (Unacked& u : unacked_) {
    if (!send_all(u.record.data(), u.record.size())) break;
    u.retransmitted = true;
    u.harmed = false;  // the clean copy is on a reliable socketpair now
    ++stats_.retransmits;
  }
  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kInfo, "worker-retransmit",
                   {{"frames", unacked_.size()},
                    {"rto_ms", static_cast<std::uint64_t>(rto_.count())},
                    {"charged", charged ? 1u : 0u}},
                   label_);
  rto_ = std::min(rto_ * 2, kRtoMax);
  rto_deadline_ = now + rto_;
  return true;
}

void WorkerChannel::on_ack(std::uint64_t next_expected,
                           std::chrono::steady_clock::time_point now) {
  bool advanced = false;
  while (!unacked_.empty() && unacked_.front().seq < next_expected) {
    const Unacked& u = unacked_.front();
    if (!u.retransmitted) {
      // Karn's rule: only never-retransmitted records give unambiguous
      // round-trip samples.  RFC6298-style smoothing.
      const double sample =
          std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
              now - u.first_sent)
              .count();
      if (srtt_ms_ == 0.0) {
        srtt_ms_ = sample;
        rttvar_ms_ = sample / 2.0;
      } else {
        rttvar_ms_ = 0.75 * rttvar_ms_ + 0.25 * std::abs(srtt_ms_ - sample);
        srtt_ms_ = 0.875 * srtt_ms_ + 0.125 * sample;
      }
      const auto rto = std::chrono::milliseconds(
          static_cast<long>(srtt_ms_ + 4.0 * rttvar_ms_) + 1);
      rto_ = std::clamp(rto, kRtoInitial, kRtoMax);
    }
    unacked_.pop_front();
    advanced = true;
  }
  for (auto it = deferred_.begin(); it != deferred_.end();)
    it = it->seq < next_expected ? deferred_.erase(it) : std::next(it);
  if (advanced && !unacked_.empty()) rto_deadline_ = now + rto_;
}

int WorkerChannel::parse_record(ProcFrame& type, Bytes& body) {
  const std::size_t have = inbuf_.size() - inbuf_head_;
  if (have < 4) return 0;
  const std::uint32_t len = load_len(inbuf_.data() + inbuf_head_);
  if (len < kRecOverhead || len > kMaxProcFrame)
    throw ProtocolError("WorkerChannel[" + label_ + "]: reliability record declares length " +
                        std::to_string(len) + " outside [" + std::to_string(kRecOverhead) +
                        ", " + std::to_string(kMaxProcFrame) + "]");
  if (have < 4 + static_cast<std::size_t>(len)) return 0;
  const std::uint8_t* rec = inbuf_.data() + inbuf_head_ + 4;
  const auto consume = [&] {
    inbuf_head_ += 4 + len;
    compact_inbuf();
  };
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < 4; ++i)
    stored |= static_cast<std::uint32_t>(rec[len - 4 + i]) << (8 * i);
  if (stored != crc32c(rec, len - 4)) {
    // A chaos bit-flip: the record is discarded whole and the sender's
    // retransmit machinery owns recovery (net.chaos.corrupt_rejected).
    ++stats_.corrupt_rejected;
    consume();
    return -1;
  }
  const std::uint8_t kind = rec[0];
  const std::uint64_t seq = load_u64(rec + 1);
  if (kind == kRecAck) {
    consume();
    on_ack(seq, std::chrono::steady_clock::now());
    return -1;
  }
  if (kind != kRecData || len < kRecOverhead + 1) {
    consume();
    throw ProtocolError("WorkerChannel[" + label_ + "]: malformed reliability record (kind " +
                        std::to_string(kind) + ", length " + std::to_string(len) + ")");
  }
  if (seq != rx_next_) {
    // Gap or duplicate: go-back-N discards and re-acks the cumulative
    // position so the sender knows where to resume.
    consume();
    send_ack();
    return -1;
  }
  rx_next_ = seq + 1;
  type = static_cast<ProcFrame>(rec[9]);
  body.assign(rec + 10, rec + len - 4);
  consume();
  send_ack();
  return 1;
}

void WorkerChannel::compact_inbuf() {
  if (inbuf_head_ == inbuf_.size()) {
    inbuf_.clear();
    inbuf_head_ = 0;
  }
}

WorkerChannel::Status WorkerChannel::read_frame(ProcFrame& type, Bytes& body,
                                                std::chrono::milliseconds deadline) {
  const auto give_up = std::chrono::steady_clock::now() + deadline;
  if (!reliable_) {
    for (;;) {
      // A complete frame already reassembled?
      const std::size_t have = inbuf_.size() - inbuf_head_;
      if (have >= 4) {
        const std::uint32_t len = load_len(inbuf_.data() + inbuf_head_);
        if (len < 1 || len > kMaxProcFrame) {
          const std::string claimed =
              have >= 5 ? std::string(proc_frame_name(
                              static_cast<ProcFrame>(inbuf_[inbuf_head_ + 4])))
                        : "unreadable";
          throw ProtocolError("WorkerChannel[" + label_ + "]: " + claimed +
                              " frame declares body length " + std::to_string(len) +
                              " outside [1, " + std::to_string(kMaxProcFrame) + "]");
        }
        if (have >= 4 + static_cast<std::size_t>(len)) {
          const std::uint8_t* frame = inbuf_.data() + inbuf_head_ + 4;
          type = static_cast<ProcFrame>(frame[0]);
          body.assign(frame + 1, frame + len);
          inbuf_head_ += 4 + len;
          compact_inbuf();
          return Status::kOk;
        }
      }

      const auto now = std::chrono::steady_clock::now();
      if (now >= give_up) return Status::kTimeout;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(give_up - now);
      pollfd pfd{fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
      if (rc < 0) {
        if (errno == EINTR) continue;
        throw_sys("WorkerChannel: poll");
      }
      if (rc == 0) return Status::kTimeout;

      std::uint8_t chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        if (errno == ECONNRESET) return Status::kEof;
        throw_sys("WorkerChannel: recv");
      }
      if (got == 0) return Status::kEof;
      inbuf_.insert(inbuf_.end(), chunk, chunk + got);
    }
  }

  // Reliable mode: every wait doubles as the channel's event loop —
  // releasing deferred chaotic sends, absorbing acks, firing RTO
  // retransmissions — so progress never depends on a caller doing
  // anything beyond waiting for its reply.
  if (budget_dead_) return Status::kBudget;
  for (;;) {
    auto now = std::chrono::steady_clock::now();
    pump_deferred(now, false);
    for (;;) {
      const int parsed = parse_record(type, body);
      if (parsed == 1) return Status::kOk;
      if (parsed == 0) break;
    }
    now = std::chrono::steady_clock::now();
    if (now >= give_up) return Status::kTimeout;
    if (!unacked_.empty() && now >= rto_deadline_) {
      if (!retransmit_all(now)) return Status::kBudget;
      continue;
    }

    auto wake = give_up;
    if (!unacked_.empty()) wake = std::min(wake, rto_deadline_);
    for (const Deferred& d : deferred_)
      if (d.release != kHoldGated) wake = std::min(wake, d.release);
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(wake - now);
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::max<long>(left.count(), 0)) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_sys("WorkerChannel: poll");
    }
    if (rc == 0) continue;  // deadline / RTO / deferred release re-checked on top

    std::uint8_t chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (errno == ECONNRESET) return Status::kEof;
      throw_sys("WorkerChannel: recv");
    }
    if (got == 0) return Status::kEof;
    inbuf_.insert(inbuf_.end(), chunk, chunk + got);
  }
}

void WorkerChannel::enable_chaos(const ChaosSpec& spec, std::uint64_t seed,
                                 std::string_view label) {
  if (reliable_) throw UsageError("WorkerChannel: chaos already enabled");
  if (!spec.enabled()) throw UsageError("WorkerChannel: refusing to enable an inert chaos spec");
  spec.validate();
  label_ = std::string(label);
  chaos_.emplace(spec, seed, label);
  rto_ = kRtoInitial;
  reliable_ = true;
}

std::chrono::milliseconds WorkerChannel::stall_deadline() const {
  const std::chrono::milliseconds flat = net_timeout_;
  if (!reliable_) return flat;
  // Worst case before the channel must have either recovered or spent its
  // budget: one RTO per remaining charged burst (backoff only shortens
  // this bound's slack), plus headroom for the peer to compute.
  const std::size_t left = budget() > budget_used_ ? budget() - budget_used_ : 0;
  const auto adaptive =
      std::chrono::milliseconds(rto_.count() * static_cast<long>(left + 2) + 1000);
  return std::min(flat, std::max(std::chrono::milliseconds(1000), adaptive));
}

bool WorkerChannel::drain(std::chrono::milliseconds deadline) {
  if (!reliable_) return true;
  const auto give_up = std::chrono::steady_clock::now() + deadline;
  for (;;) {
    auto now = std::chrono::steady_clock::now();
    pump_deferred(now, true);  // exiting soon: no point honoring deferrals
    ProcFrame type{};
    Bytes body;
    // Absorb acks (and discard any stray retransmitted request — the
    // session is over for this end).
    while (parse_record(type, body) != 0) {
    }
    if (unacked_.empty()) return true;
    if (budget_dead_) return false;
    now = std::chrono::steady_clock::now();
    if (now >= give_up) return false;
    if (now >= rto_deadline_) {
      if (!retransmit_all(now)) return false;
      continue;
    }

    const auto wake = std::min(give_up, rto_deadline_);
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(wake - now);
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::max<long>(left.count(), 0)) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_sys("WorkerChannel: poll");
    }
    if (rc == 0) continue;

    std::uint8_t chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      if (errno == ECONNRESET) return false;
      throw_sys("WorkerChannel: recv");
    }
    if (got == 0) return false;
    inbuf_.insert(inbuf_.end(), chunk, chunk + got);
  }
}

void set_worker_loop(WorkerLoop loop) noexcept { g_worker_loop = loop; }

int maybe_worker_main(int argc, char** argv) {
  // Strict whole-value parse: "--simulcast-worker-fd=abc" must not become
  // fd 0 (stdin as the coordinator channel), nor a garbage timeout be
  // silently ignored.
  const auto parse = [](const char* text, long& out) {
    const char* const end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end && ptr != text;
  };
  bool worker = false;
  bool malformed = false;
  bool mute = false;
  long fd = -1;
  long timeout_ms = kDefaultNetTimeout.count();
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind(kWorkerFdFlag, 0) == 0) {
      worker = true;
      malformed = malformed || !parse(argv[i] + std::strlen(kWorkerFdFlag), fd) || fd < 0 ||
                  fd > std::numeric_limits<int>::max();
    } else if (arg.rfind(kWorkerTimeoutFlag, 0) == 0) {
      malformed = malformed || !parse(argv[i] + std::strlen(kWorkerTimeoutFlag), timeout_ms) ||
                  timeout_ms <= 0;
    } else if (arg == kWorkerMuteFlag) {
      mute = true;
    }
  }
  if (!worker) return -1;  // not a worker invocation
  if (malformed) return 3;

  if (mute) {
    // The connects-but-never-handshakes negative case: hold the channel
    // open and say nothing until the coordinator gives up and kills us.
    for (;;) ::pause();
  }
  const std::chrono::milliseconds timeout(timeout_ms);

  try {
    WorkerChannel channel(static_cast<int>(fd), timeout);
    ProcFrame type{};
    Bytes body;
    const auto status = channel.read_frame(type, body, timeout);
    if (status != WorkerChannel::Status::kOk) return 3;
    if (type != ProcFrame::kHello) return 3;
    const WorkerHello hello = decode_worker_hello(body);
    // Generic shape checks; exiting without an ack is the rejection
    // signal the coordinator turns into ProtocolError.
    if (hello.n == 0 || hello.n > 64 || hello.slot >= hello.n) return 3;
    if (g_worker_loop == nullptr) return 4;
    return g_worker_loop(channel, hello);
  } catch (const ProtocolError&) {
    return 3;
  } catch (...) {
    return 4;
  }
}

}  // namespace simulcast::net
