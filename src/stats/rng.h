// Deterministic, splittable pseudo-random number generation.
//
// Every stochastic component in simulcast (protocol randomness, adversary
// randomness, input sampling, Monte-Carlo testers) draws from an Rng that is
// a pure function of an explicit 64-bit seed, so whole experiments replay
// exactly.  The generator is xoshiro256** seeded through SplitMix64, the
// combination recommended by the xoshiro authors.  Rng::fork derives an
// independent child stream from a label, which gives each party / repetition
// its own stream without any shared mutable state.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace simulcast::stats {

/// SplitMix64 step: advances `state` and returns the next output.
/// Used for seeding and for stream derivation; also useful as a cheap
/// stateless mixer.
[[nodiscard]] std::uint64_t split_mix64(std::uint64_t& state) noexcept;

/// Mixes arbitrary bytes into a 64-bit value (FNV-1a followed by a SplitMix64
/// finalizer).  Not cryptographic; used only to derive RNG stream labels.
[[nodiscard]] std::uint64_t mix_label(std::string_view label) noexcept;

/// xoshiro256** generator with explicit-seed construction and labelled
/// forking.  Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Next 64 uniform bits.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound) without modulo bias (Lemire rejection).
  /// Precondition: bound > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform bit.
  [[nodiscard]] bool bit() noexcept { return (operator()() >> 63) != 0; }

  /// Bernoulli(p) draw; p is clamped to [0,1].
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Uniform double in [0,1) with 53 bits of precision.
  [[nodiscard]] double uniform01() noexcept;

  /// Derives an independent child generator.  Children forked with distinct
  /// (label, index) pairs have distinct, fixed seeds; forking does not
  /// advance this generator, so adding forks never perturbs existing
  /// replayed streams.
  [[nodiscard]] Rng fork(std::string_view label, std::uint64_t index = 0) const noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_;  // retained so fork() is a pure function of the seed
};

}  // namespace simulcast::stats
