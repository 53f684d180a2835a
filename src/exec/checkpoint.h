// Checkpoint/resume for exec::Runner batches: the persistence half of the
// campaign resilience layer.
//
// A multi-hour Monte-Carlo campaign must survive SIGINT, OOM-kills and
// pathological repetitions without throwing away completed work.  The
// engine therefore periodically persists every completed sample slot, the
// quarantine list and the batch's wall-clock partials to a sidecar file,
// keyed by the batch's *identity tuple* — protocol, party count, repetition
// count, a config hash (corruption set, auxiliary input, channel privacy,
// security parameter, commitment scheme, adversary type), a fault-plan
// hash and a stream hash over every (input, seed) pair in slot order.  On
// resume the identity is verified field by field; restored slots are
// byte-exact copies of what the interrupted run computed, and the
// remaining slots are pure functions of their (input, seed), so the
// resumed batch is bit-identical to an uninterrupted one at any thread
// count (pinned by tests/exec and the tests/props interrupt-point
// property).
//
// The adversary is a closure (adversary::AdversaryFactory): the config hash
// covers the closure's type, which tells the factories apart, but not the
// parameters it captured.  One blind spot is left: two campaigns whose
// factories are of one kind and differ only in captured parameters (say
// copy_last_factory(0) and copy_last_factory(1)) share an identity, and
// resuming one from the other's checkpoint is on the caller (DESIGN.md
// section 10).
//
// The file is one versioned binary record, written and read with
// base/bytes.h's ByteWriter/ByteReader.  It is written atomically (temp
// file + rename) so a kill mid-flush leaves the previous checkpoint
// intact, never a truncated one; a load still rejects every proper prefix
// of a record and any byte after one.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/runner.h"

namespace simulcast::exec {

/// The identity tuple of one batch within a campaign.  Two batches with
/// equal identities describe the same computation (up to the adversary
/// caveat above), so resuming one from the other's checkpoint is sound.
struct CampaignIdentity {
  std::string protocol;           ///< ParallelBroadcastProtocol::name()
  std::size_t n = 0;              ///< party count
  std::size_t count = 0;          ///< repetitions in the batch
  std::uint64_t config_hash = 0;  ///< corruption set, aux input, privacy, k, commitment scheme,
                                  ///< adversary factory type
  std::uint64_t fault_hash = 0;   ///< the effective sim::FaultPlan
  std::uint64_t stream_hash = 0;  ///< every (input, seed) pair, slot order

  [[nodiscard]] bool operator==(const CampaignIdentity& other) const;
  [[nodiscard]] bool operator!=(const CampaignIdentity& other) const {
    return !(*this == other);
  }

  /// One line for error messages and the checkpoint header.
  [[nodiscard]] std::string describe() const;

  /// Combined 64-bit digest: the checkpoint filename key, so each batch of
  /// a multi-batch driver lands in its own sidecar file.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Order-sensitive 64-bit accumulator used for the identity hashes (FNV-1a
/// over 64-bit lanes with a SplitMix64 finalizer per step — stable across
/// platforms, not cryptographic).
class IdentityHash {
 public:
  IdentityHash& mix(std::uint64_t value);
  IdentityHash& mix(double value);  ///< mixes the exact bit pattern
  IdentityHash& mix(std::string_view text);
  IdentityHash& mix(const Bytes& bytes);
  IdentityHash& mix(const BitVec& bits);
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// One completed slot: the exact Sample the interrupted run computed.
struct SlotRecord {
  std::size_t slot = 0;
  Sample sample;
};

/// Everything a resume needs: identity (verified), the execution-phase
/// seconds already spent (so the resumed BatchReport accounts the whole
/// campaign), completed slots and the quarantine list.
struct CheckpointData {
  CampaignIdentity identity;
  double elapsed_seconds = 0.0;
  std::vector<SlotRecord> slots;
  std::vector<QuarantineRecord> quarantined;
};

/// "ckpt_<16-hex-digest>.ckpt" for this identity.
[[nodiscard]] std::string checkpoint_filename(const CampaignIdentity& identity);

/// File-or-directory semantics mirroring the JSON sink: a path ending in
/// ".ckpt" names the sidecar exactly (single-batch campaigns); anything
/// else is a directory receiving checkpoint_filename(identity).
[[nodiscard]] std::string resolve_checkpoint_path(const std::string& path,
                                                  const CampaignIdentity& identity);

/// Atomically writes `data` to `resolved_path` (temp + rename; parent
/// directories are created).  Throws UsageError when the path cannot be
/// written.
void write_checkpoint(const std::string& resolved_path, const CheckpointData& data);

/// Loads a checkpoint.  Returns nullopt when no file exists (a fresh
/// campaign); throws UsageError on a malformed or truncated file — a
/// checkpoint that cannot be trusted must never silently turn a resume
/// into a partial recompute.
[[nodiscard]] std::optional<CheckpointData> load_checkpoint(const std::string& resolved_path);

/// Removes the sidecar (missing is fine): called when a batch completes
/// with nothing left to resume.
void remove_checkpoint(const std::string& resolved_path);

}  // namespace simulcast::exec
