#include "stats/rng.h"

namespace simulcast::stats {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t split_mix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t mix_label(std::string_view label) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  std::uint64_t s = h;
  return split_mix64(s);
}

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = split_mix64(s);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method with rejection.
  using u128 = unsigned __int128;
  std::uint64_t x = operator()();
  u128 m = static_cast<u128>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = operator()();
      m = static_cast<u128>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::uniform01() noexcept {
  return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
}

Rng Rng::fork(std::string_view label, std::uint64_t index) const noexcept {
  std::uint64_t s = seed_;
  s ^= mix_label(label);
  s ^= 0x6a09e667f3bcc909ULL + index * 0x9e3779b97f4a7c15ULL;
  std::uint64_t mixer = s;
  return Rng(split_mix64(mixer));
}

}  // namespace simulcast::stats
