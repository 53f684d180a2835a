#include "crypto/modmath.h"

#include <bit>

#include "base/error.h"

namespace simulcast::crypto {

std::uint64_t mulmod(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept {
  return static_cast<std::uint64_t>(static_cast<unsigned __int128>(a) * b % m);
}

std::uint64_t powmod(std::uint64_t base, std::uint64_t exp, std::uint64_t m) noexcept {
  if (m == 1) return 0;
  std::uint64_t result = 1;
  base %= m;
  while (exp > 0) {
    if (exp & 1) result = mulmod(result, base, m);
    base = mulmod(base, base, m);
    exp >>= 1;
  }
  return result;
}

std::uint64_t invmod(std::uint64_t a, std::uint64_t m) {
  // Extended Euclid on signed 128-bit accumulators.
  using i128 = __int128;
  i128 old_r = static_cast<i128>(a % m), r = static_cast<i128>(m);
  i128 old_s = 1, s = 0;
  while (r != 0) {
    const i128 quotient = old_r / r;
    i128 tmp = old_r - quotient * r;
    old_r = r;
    r = tmp;
    tmp = old_s - quotient * s;
    old_s = s;
    s = tmp;
  }
  if (old_r != 1) throw UsageError("invmod: argument not invertible");
  i128 result = old_s % static_cast<i128>(m);
  if (result < 0) result += static_cast<i128>(m);
  return static_cast<std::uint64_t>(result);
}

bool is_prime_u64(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL,
                          31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL, 29ULL,
                          31ULL, 37ULL}) {
    std::uint64_t x = powmod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool witness = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

int jacobi(std::uint64_t a, std::uint64_t n) noexcept {
  // Invariant: the answer is (-1)^(sign & 1) * (a/n), with a and n odd in
  // the loop.  Each step uses three rules: reciprocity (a/n) = -(n/a) iff
  // a = n = 3 mod 4, then (a/n) = ((a - n)/n), then (2/n) = -1 iff
  // n = 3, 5 mod 8 for every factor 2 shifted out.  The swap is done with
  // masks: its outcome is a coin flip, so a branch would mispredict half
  // the time.
  if (a == 0) return n == 1 ? 1 : 0;
  const int shift = std::countr_zero(a);
  a >>= shift;
  std::uint64_t sign = static_cast<std::uint64_t>(shift) & ((n >> 1) ^ (n >> 2));
  while (a != n) {
    const std::uint64_t d = a - n;
    const int zeros = std::countr_zero(d);
    const std::uint64_t swap = 0 - static_cast<std::uint64_t>(a < n);  // all ones iff a < n
    sign ^= (a & n & swap) >> 1;
    n += d & swap;                          // min(a, n)
    a = ((d ^ swap) - swap) >> zeros;       // |a - n| with its factors 2 removed
    sign ^= static_cast<std::uint64_t>(zeros) & ((n >> 1) ^ (n >> 2));
  }
  if (n != 1) return 0;
  return (sign & 1) != 0 ? -1 : 1;
}

Montgomery::Montgomery(std::uint64_t m) : m_(m) {
  if (m % 2 == 0 || m >= (std::uint64_t{1} << 63))
    throw UsageError("Montgomery: modulus must be odd and below 2^63");
  // Newton's iteration doubles the correct low bits of m^-1 mod 2^64 each
  // step, starting from m itself (m * m = 1 mod 8 for odd m): 3 -> 96 bits.
  inv_ = m;
  for (int i = 0; i < 5; ++i) inv_ *= 2 - m * inv_;
  one_ = (0 - m) % m;  // 2^64 - m = R mod m
  r2_ = mulmod(one_, one_, m);
}

}  // namespace simulcast::crypto
