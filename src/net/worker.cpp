#include "net/worker.h"

#include <algorithm>
#include <optional>
#include <span>
#include <string_view>

#include "base/error.h"
#include "net/transport.h"

namespace simulcast::net {

namespace {

std::string_view frame_type_name(std::uint8_t type) noexcept {
  return proc_frame_name(static_cast<ProcFrame>(type));
}

/// Reads and checks the magic + version preamble of a hello or ack body.
void expect_preamble(ByteReader& r, const std::string& what) {
  if (r.u32() != kProcMagic) throw ProtocolError(what + ": bad magic");
  const std::uint8_t version = r.u8();
  if (version != kProcVersion)
    throw ProtocolError(what + ": protocol version " + std::to_string(version) +
                        " != " + std::to_string(kProcVersion));
}

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
  out.clear();
  ByteWriter w(out);
  w.u32(kProcMagic);
  w.u8(kProcVersion);
  w.u64(hello.n);
  w.u64(hello.slot);
  w.u64(hello.seed);
  w.u64(hello.rounds);
  w.u8(hello.input ? 1 : 0);
  w.str(hello.protocol);
  w.str(hello.commitments);
  w.str(hello.chaos);
}

WorkerHello decode_worker_hello(const Bytes& body) {
  ByteReader r(body);
  expect_preamble(r, "worker hello");
  WorkerHello hello;
  hello.n = r.u64();
  hello.slot = r.u64();
  hello.seed = r.u64();
  hello.rounds = r.u64();
  hello.input = r.u8() != 0;
  hello.protocol = r.str();
  hello.commitments = r.str();
  hello.chaos = r.str();
  if (!r.done()) throw ProtocolError("worker hello: trailing bytes");
  return hello;
}

void encode_worker_ack(std::uint64_t slot, Bytes& out) {
  out.clear();
  ByteWriter w(out);
  w.u32(kProcMagic);
  w.u8(kProcVersion);
  w.u64(slot);
}

std::uint64_t decode_worker_ack(const Bytes& body) {
  ByteReader r(body);
  expect_preamble(r, "worker ack");
  const std::uint64_t slot = r.u64();
  if (!r.done()) throw ProtocolError("worker ack: trailing bytes");
  return slot;
}

WorkerChannel::WorkerChannel(int fd, std::chrono::milliseconds net_timeout)
    : Link(fd, &frame_type_name), net_timeout_(net_timeout) {}

template <class Done>
WorkerChannel::Status WorkerChannel::wait(std::chrono::milliseconds deadline, Done done) {
  const auto give_up = Link::Clock::now() + deadline;
  for (;;) {
    if (dead()) return Status::kBudget;
    if (done()) return Status::kOk;
    if (closed()) return Status::kEof;
    if (Link::Clock::now() >= give_up) return Status::kTimeout;
    wait_links(std::span<Link>(static_cast<Link*>(this), 1), give_up);
  }
}

WorkerChannel::Status WorkerChannel::read_frame(ProcFrame& type, Bytes& body,
                                                std::chrono::milliseconds deadline) {
  return wait(deadline, [&] {
    const std::optional<Link::Record> record = next();
    if (!record) return false;
    type = static_cast<ProcFrame>(record->type);
    body.assign(record->body.begin(), record->body.end());
    return true;
  });
}

bool WorkerChannel::drain(std::chrono::milliseconds deadline) {
  release_held();  // exiting soon: no later frame will pass them
  return wait(deadline, [&] {
           // Absorb acks, and discard any stray retransmitted request: the
           // session is over for this end.
           while (next()) {
           }
           return settled();
         }) == Status::kOk;
}

std::chrono::milliseconds WorkerChannel::stall_deadline() const {
  if (!reliable()) return net_timeout_;
  return std::min(net_timeout_, std::max(std::chrono::milliseconds(1000), recovery_bound()));
}

}  // namespace simulcast::net
