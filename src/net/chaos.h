// Deterministic wire chaos: a seed-driven, netem-style fault layer applied
// *below* the transport seam, by net::Link (net/link.h) — the one
// record stream under both the socket and the process backends.
//
// Everything sim::FaultPlan injects happens *above* the transport — the
// scheduler drops or delays whole messages before they reach a backend.
// Chaos is the complementary regime: records that left the sender intact
// are lost, duplicated, reordered, delayed or bit-flipped *on the wire*,
// and the Link's recovery (CRC32C, go-back-N, cumulative acks, the RTO)
// must absorb it — or degrade into an execution failure (socket backend)
// or the crash bookkeeping a FaultPlan crash uses (process backend,
// DESIGN.md section 15).
//
// Determinism contract (mirrors the FaultPlan's fault DRBG): every chaos
// decision is drawn from an HmacDrbg forked from the execution seed with a
// "wire-chaos:<channel>" personalization, in the order of the exposed
// first transmissions (net::Link::send).  That order is a pure function of
// the execution, so which frames are lost / duplicated / corrupted is
// reproducible from (seed, spec) alone.  Retransmissions ride clean (no
// chaos draw): that is what makes "recoverable" an invariant rather than
// a race — a finite budget of clean retransmits always converges — and it
// keeps the DRBG stream independent of wall-clock timing.  Retransmit
// *counts* and latency metrics still vary run to run, as timings do.
//
// The spec grammar (the --chaos=SPEC knob) is a comma-separated key list:
//
//   delay:fixed:MS | delay:uniform:LO:HI | delay:pareto:SCALE:SHAPE
//   loss:P           per-frame drop probability
//   dup:P            per-frame duplication probability
//   reorder:P:W      hold a frame back past up to W later frames
//   corrupt:P        per-byte bit-flip probability (headers stay intact:
//                    chaos corrupts payload regions, packet-granularity
//                    netem semantics — framing never desynchronizes)
//   budget:N         charged retransmit bursts allowed per Link before
//                    the Link is declared dead (degradation path)
//   party:ID         restrict chaos to party ID (ID < n): see applies_to
//   after:K          first K exposed frames per Link ride clean (lets
//                    tests pin the round where chaos engages)
//
// e.g. --chaos=delay:pareto:2:20,loss:0.01,corrupt:1e-6
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "crypto/hmac.h"

namespace simulcast::net {

/// Parsed, validated chaos conditions.  The default-constructed spec is
/// inert: enabled() is false and every wrapped channel behaves
/// byte-identically to a chaos-free build.
struct ChaosSpec {
  enum class Delay : std::uint8_t { kNone, kFixed, kUniform, kPareto };

  static constexpr std::size_t kAllParties = std::numeric_limits<std::size_t>::max();
  /// Clean retransmits per channel before the degradation path fires.
  static constexpr std::size_t kDefaultBudget = 64;
  /// Injected latency is capped well below any stall deadline: chaos tests
  /// slowness, not wedges (wedges are the FaultPlan crash regime).
  static constexpr double kMaxDelayMs = 5000.0;

  Delay delay = Delay::kNone;
  double delay_a = 0.0;  ///< fixed: ms; uniform: lo ms; pareto: scale ms
  double delay_b = 0.0;  ///< uniform: hi ms; pareto: shape alpha
  double loss = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  std::size_t reorder_window = 0;
  double corrupt = 0.0;  ///< per-byte
  std::size_t budget = kDefaultBudget;
  std::size_t party = kAllParties;
  std::size_t after = 0;

  /// True when any wire condition is set (budget/party/after alone do not
  /// enable chaos — they only shape it).
  [[nodiscard]] bool enabled() const noexcept {
    return delay != Delay::kNone || loss > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           corrupt > 0.0;
  }

  /// True when this spec targets party `id`: a record's destination on
  /// the socket backend, a worker's channel on the process backend.
  [[nodiscard]] bool applies_to(std::size_t id) const noexcept {
    return party == kAllParties || party == id;
  }

  /// Canonical spelling: parse(summary()) round-trips, summary() of an
  /// inert spec is "".  Recorded in schema-v8 metadata.
  [[nodiscard]] std::string summary() const;

  /// Throws UsageError on out-of-range probabilities or delays.
  void validate() const;
};

/// Parses a --chaos=SPEC value (grammar above); throws UsageError on
/// malformed input.  "" parses to the inert spec.
[[nodiscard]] ChaosSpec parse_chaos_spec(std::string_view text);

/// Per-channel chaos accounting, merged into the net.chaos.* registry
/// metrics by record_chaos_metrics.  Frame-fate counts are deterministic
/// (pure functions of the traffic and the spec); retransmits vary with
/// wall-clock timing like every latency metric.
struct ChaosStats {
  std::size_t dropped = 0;          ///< frames lost on first transmission
  std::size_t duplicated = 0;       ///< frames sent twice
  std::size_t reordered = 0;        ///< frames held back past later frames
  std::size_t delayed = 0;          ///< frames given injected latency
  std::size_t corrupted = 0;        ///< frames bit-flipped in flight
  std::size_t corrupt_rejected = 0; ///< frames a receiver rejected by CRC
  std::size_t retransmits = 0;      ///< clean retransmissions
  std::size_t budget_exhausted = 0; ///< channels declared dead (degradation)

  ChaosStats& operator+=(const ChaosStats& other) noexcept;
  [[nodiscard]] bool any() const noexcept;
};

/// Feeds the net.chaos.* registry counters; a channel that saw no chaos
/// records nothing.
void record_chaos_metrics(const ChaosStats& stats);

/// One channel's deterministic fault source.  Single-threaded, owned by
/// the channel it wraps (per-execution objects, like every transport).
class Chaos {
 public:
  /// `channel` personalizes the DRBG ("wire-chaos:<channel>") so distinct
  /// channels of one execution draw independent fault streams.
  Chaos(const ChaosSpec& spec, std::uint64_t seed, std::string_view channel);

  /// The fate of one first transmission, drawn in transmission order.
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    std::size_t hold = 0;  ///< reorder: release after this many later frames
    std::chrono::microseconds delay{0};
    bool corrupt = false;
  };

  /// Draws the next frame's fate.  The first `spec().after` calls return
  /// the clean verdict (their draws are still consumed, keeping every
  /// frame's fate a pure function of (seed, spec, traffic prefix)).
  [[nodiscard]] Verdict next_verdict();

  /// Samples every byte of [data, data+size) against the per-byte corrupt
  /// probability, flipping one bit of each selected byte; call only when
  /// the verdict said corrupt.  Returns the number of flips (possibly 0 —
  /// every byte may survive).  The per-byte draws come from the same DRBG
  /// stream, so a frame's corruption is deterministic given the traffic.
  std::size_t corrupt_bytes(std::uint8_t* data, std::size_t size);

  [[nodiscard]] const ChaosSpec& spec() const noexcept { return spec_; }

 private:
  [[nodiscard]] double uniform();  ///< in [0, 1)

  ChaosSpec spec_;
  crypto::HmacDrbg drbg_;
  std::uint64_t frame_index_ = 0;
};

}  // namespace simulcast::net
