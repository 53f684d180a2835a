#include "net/link.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <system_error>

#include "base/error.h"
#include "net/wire.h"
#include "obs/log.h"

namespace simulcast::net {

namespace {

/// Reliable-record layout (see the header): len covers kind..crc, the CRC
/// covers kind..rest.
constexpr std::uint8_t kRecData = 1;
constexpr std::uint8_t kRecAck = 2;
constexpr std::size_t kRecOverhead = 1 + 8 + 4;  ///< kind + seq + crc

/// RTO bounds.  The floor, which is also the RTO before any sample, is
/// still three orders of magnitude above a loopback round trip, so an RTO
/// firing with no chaos-harmed record in flight (a merely slow peer) stays
/// rare — those retransmit for free, but cheap noise is still noise.  The
/// ceiling bounds recovery latency under exponential backoff.
constexpr std::chrono::milliseconds kRtoMin{25};
constexpr std::chrono::milliseconds kRtoMax{1000};

constexpr auto kHoldGated = Link::Clock::time_point::max();

/// Bytes asked of one recv; a shorter answer means the socket is drained.
constexpr std::size_t kReadChunk = 16384;

/// True when `unparsed` starts with a complete record.
bool holds_record(ByteSpan unparsed) {
  return unparsed.size() >= 4 && unparsed.size() - 4 >= ByteReader(unparsed).u32();
}

}  // namespace

void Link::throw_sys(const char* what) const {
  throw std::system_error(errno, std::generic_category(), "Link[" + label_ + "]: " + what);
}

void Link::enable_chaos(const ChaosSpec& spec, std::uint64_t seed, std::string_view label) {
  if (reliable()) throw UsageError("Link: chaos already enabled");
  if (!spec.enabled()) throw UsageError("Link: refusing to enable an inert chaos spec");
  label_ = std::string(label);
  chaos_ = std::make_unique<Chaos>(spec, seed, label);
  rto_ = kRtoMin;
}

bool Link::send(std::uint8_t type, ByteSpan body, bool exposed) {
  if (reliable()) {
    send_reliable(type, body, exposed);
  } else {
    ByteWriter w(outbox_);
    const std::size_t at = w.begin_field();
    w.u8(type);
    w.raw(body);
    w.end_field(at);
  }
  flush();
  return !closed_;
}

void Link::send_reliable(std::uint8_t type, ByteSpan body, bool exposed) {
  const auto now = Clock::now();
  // Older hold-gated records count this one as one of the "later" records
  // they wait to be passed by — decremented before it goes out so a hold
  // of 1 really does land behind it.
  for (Unacked& u : unacked_)
    if (!u.held.empty() && u.release == kHoldGated && u.hold > 0) --u.hold;

  const std::uint64_t seq = tx_next_++;
  Bytes record;
  record.reserve(4 + kRecOverhead + 1 + body.size());
  ByteWriter w(record);
  const std::size_t at = w.begin_field();
  w.u8(kRecData);
  w.u64(seq);
  w.u8(type);
  w.raw(body);
  end_crc_field(w, at);

  if (unacked_.empty()) rto_deadline_ = now + rto_;
  unacked_.push_back(Unacked{seq, std::move(record), now});
  Unacked& entry = unacked_.back();

  const Chaos::Verdict verdict = exposed ? chaos_->next_verdict() : Chaos::Verdict{};
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
    const bool delayed = verdict.delay.count() > 0;
    if (delayed || verdict.hold > 0) {
      // A delay releases by the clock, a reorder hold by later sends.
      ++(delayed ? stats_.delayed : stats_.reordered);
      entry.held = std::move(tx);
      entry.duplicate = verdict.duplicate;
      entry.hold = delayed ? 0 : verdict.hold;
      entry.release = delayed ? now + verdict.delay : kHoldGated;
    } else {
      queue(tx);
      if (verdict.duplicate) queue(tx);
    }
  }
  release_deferred(now);
}

void Link::release_deferred(Clock::time_point now, bool all) {
  for (Unacked& u : unacked_) {
    if (u.held.empty()) continue;
    if (!all && !(u.release == kHoldGated ? u.hold == 0 : u.release <= now)) continue;
    queue(u.held);
    if (u.duplicate) queue(u.held);
    u.held.clear();
  }
}

void Link::retransmit_all(Clock::time_point now) {
  const bool charged = std::any_of(unacked_.begin(), unacked_.end(),
                                   [](const Unacked& u) { return u.harmed; });
  const std::size_t budget = chaos_->spec().budget;
  if (charged) {
    if (budget_used_ >= budget) {
      dead_ = true;
      stats_.budget_exhausted = 1;
      if (obs::log_enabled())
        obs::log_event(obs::LogLevel::kWarn, "net-chaos-budget",
                       {{"unacked", unacked_.size()}, {"budget", budget}}, label_);
      return;
    }
    ++budget_used_;
  }
  for (Unacked& u : unacked_) {
    queue(u.record);
    u.held.clear();  // the clean copy supersedes a still-held first try
    u.retransmitted = true;
    u.harmed = false;  // the clean copy rides a reliable stream now
    ++stats_.retransmits;
  }
  if (obs::log_enabled())
    obs::log_event(obs::LogLevel::kInfo, "net-retransmit",
                   {{"frames", unacked_.size()},
                    {"rto_ms", static_cast<std::uint64_t>(rto_.count())},
                    {"charged", charged ? 1u : 0u}},
                   label_);
  rto_ = std::min(rto_ * 2, kRtoMax);
  rto_deadline_ = now + rto_;
}

void Link::on_ack(std::uint64_t next_expected, Clock::time_point now) {
  std::size_t acked = 0;
  for (; acked < unacked_.size() && unacked_[acked].seq < next_expected; ++acked) {
    const Unacked& u = unacked_[acked];
    if (!u.retransmitted) {
      // Karn's rule: only never-retransmitted records give unambiguous
      // round-trip samples.  RFC 6298 smoothing.
      const double sample =
          std::chrono::duration<double, std::milli>(now - u.first_sent).count();
      if (srtt_ms_ == 0.0) {
        srtt_ms_ = sample;
        rttvar_ms_ = sample / 2.0;
      } else {
        rttvar_ms_ = 0.75 * rttvar_ms_ + 0.25 * std::abs(srtt_ms_ - sample);
        srtt_ms_ = 0.875 * srtt_ms_ + 0.125 * sample;
      }
    }
  }
  // An ack of new data ends any backoff: the next RTO is the estimate
  // (the floor while there is no sample yet).
  if (acked > 0) {
    const auto rto =
        std::chrono::milliseconds(static_cast<long>(srtt_ms_ + 4.0 * rttvar_ms_) + 1);
    rto_ = std::clamp(rto, kRtoMin, kRtoMax);
  }
  unacked_.erase(unacked_.begin(), unacked_.begin() + static_cast<std::ptrdiff_t>(acked));
  if (acked > 0 && !unacked_.empty()) rto_deadline_ = now + rto_;
}

void Link::pump(Clock::time_point now) {
  receive();
  if (reliable()) {
    release_deferred(now);
    // Acks waiting in the inbuf may cover what the RTO would resend: the
    // timer fires on the first pump after next() has absorbed them.
    if (!dead_ && !unacked_.empty() && now >= rto_deadline_ &&
        !holds_record(ByteSpan(inbuf_).subspan(in_head_)))
      retransmit_all(now);
  }
  flush();
}

void Link::receive() {
  if (in_head_ == inbuf_.size()) {
    inbuf_.clear();
    in_head_ = 0;
  } else if (in_head_ > 65536 && in_head_ > inbuf_.size() / 2) {
    // Compact once the parsed prefix dominates, keeping reassembly
    // amortized-linear without erasing on every record.
    inbuf_.erase(inbuf_.begin(), inbuf_.begin() + static_cast<std::ptrdiff_t>(in_head_));
    in_head_ = 0;
  }
  while (!closed_) {
    std::uint8_t chunk[kReadChunk];
    const ssize_t got = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (got > 0) {
      inbuf_.insert(inbuf_.end(), chunk, chunk + got);
      if (static_cast<std::size_t>(got) < sizeof chunk) return;
      continue;
    }
    if (got == 0 || errno == ECONNRESET) {
      closed_ = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    } else if (errno != EINTR) {
      throw_sys("recv");
    }
  }
}

void Link::flush() {
  while (out_head_ < outbox_.size() && !closed_) {
    const ssize_t wrote = ::send(fd_, outbox_.data() + out_head_, outbox_.size() - out_head_,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
    if (wrote >= 0) {
      out_head_ += static_cast<std::size_t>(wrote);
    } else if (errno == EPIPE || errno == ECONNRESET) {
      closed_ = true;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    } else if (errno != EINTR) {
      throw_sys("send");
    }
  }
  if (out_head_ == outbox_.size()) {
    outbox_.clear();
    out_head_ = 0;
  }
}

std::optional<Link::Record> Link::next() {
  std::optional<Record> record;
  while (!record) {
    const ByteSpan unparsed = ByteSpan(inbuf_).subspan(in_head_);
    if (unparsed.size() < 4) break;
    const std::uint32_t len = ByteReader(unparsed).u32();
    const std::size_t floor = reliable() ? kRecOverhead : 1;
    if (len < floor || len > kMaxRecord) {
      std::string claimed = "unreadable";
      if (reliable())
        claimed = "reliable";
      else if (unparsed.size() >= 5)
        claimed = type_name_ != nullptr ? std::string(type_name_(unparsed[4]))
                                        : "type " + std::to_string(unparsed[4]);
      throw ProtocolError("Link[" + label_ + "]: " + claimed + " record declares length " +
                          std::to_string(len) + " outside [" + std::to_string(floor) + ", " +
                          std::to_string(kMaxRecord) + "]");
    }
    if (unparsed.size() - 4 < len) break;
    in_head_ += 4 + len;
    const ByteSpan rec = unparsed.subspan(4, len);
    record = reliable() ? accept(rec) : Record{rec[0], rec.subspan(1)};
  }
  if (ack_due_) {
    // One cumulative ack per call, for the delivery and every gap or
    // duplicate discarded on the way to it.
    ByteWriter w(outbox_);
    const std::size_t at = w.begin_field();
    w.u8(kRecAck);
    w.u64(rx_next_);
    end_crc_field(w, at);
    ack_due_ = false;
    flush();
  }
  return record;
}

std::optional<Link::Record> Link::accept(ByteSpan rec) {
  const std::optional<ByteSpan> contents = crc_field_contents(rec);
  if (!contents) {
    // A chaos bit-flip: the record is discarded whole and the sender's
    // RTO owns recovery (net.chaos.corrupt_rejected).
    ++stats_.corrupt_rejected;
    return std::nullopt;
  }
  ByteReader r(*contents);
  const std::uint8_t kind = r.u8();
  const std::uint64_t seq = r.u64();
  if (kind == kRecAck) {
    on_ack(seq, Clock::now());
    return std::nullopt;
  }
  if (kind != kRecData || r.done())
    throw ProtocolError("Link[" + label_ + "]: malformed reliable record (kind " +
                        std::to_string(kind) + ", length " + std::to_string(rec.size()) + ")");
  ack_due_ = true;
  // A gap or duplicate is discarded; the ack re-announces the position the
  // sender must resume from (go-back-N).
  if (seq != rx_next_) return std::nullopt;
  ++rx_next_;
  return Record{(*contents)[9], contents->subspan(10)};  // after kind and seq
}

Link::Clock::time_point Link::wake() const noexcept {
  Clock::time_point wake = Clock::time_point::max();
  if (!dead_ && !unacked_.empty()) wake = rto_deadline_;
  for (const Unacked& u : unacked_)
    if (!u.held.empty()) wake = std::min(wake, u.release);
  return wake;
}

std::chrono::milliseconds Link::recovery_bound() const noexcept {
  const std::size_t budget = chaos_ != nullptr ? chaos_->spec().budget : 0;
  const std::size_t left = budget > budget_used_ ? budget - budget_used_ : 0;
  return std::chrono::milliseconds(rto_.count() * static_cast<long>(left + 2) + 1000);
}

void wait_links(std::span<Link> links, Link::Clock::time_point deadline) {
  // One poll set per thread, reused: the socket backend waits at least
  // once per delivery slot, and steady state allocates nothing.
  thread_local std::vector<pollfd> fds;
  fds.resize(links.size());
  Link::Clock::time_point until = deadline;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const Link& l = links[i];
    fds[i] = {l.fd(), static_cast<short>(POLLIN | (l.wants_write() ? POLLOUT : 0)), 0};
    until = std::min(until, l.wake());
  }
  const long long left =
      std::chrono::ceil<std::chrono::milliseconds>(until - Link::Clock::now()).count();
  if (::poll(fds.data(), fds.size(), static_cast<int>(std::clamp<long long>(left, 0, INT_MAX))) <
      0) {
    if (errno != EINTR) throw std::system_error(errno, std::generic_category(), "wait_links: poll");
    for (pollfd& p : fds) p.revents = 0;  // interrupted: only the timers decide
  }
  // Timers are judged after the sleep, so a Link that is both readable and
  // due reads its acks first: pump() holds the RTO while a complete record
  // waits unread.
  const auto now = Link::Clock::now();
  for (std::size_t i = 0; i < links.size(); ++i)
    if (fds[i].revents != 0 || links[i].wake() <= now) links[i].pump(now);
}

}  // namespace simulcast::net
