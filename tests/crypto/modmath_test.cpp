#include "crypto/modmath.h"

#include <gtest/gtest.h>

#include <vector>

#include "base/error.h"
#include "stats/rng.h"

namespace simulcast::crypto {
namespace {

// Odd primes the Montgomery and Jacobi kernels are checked on: the smallest,
// the toy group's p = 23, the standard group's p and q, the Mersenne prime
// 2^61 - 1, and the largest prime below 2^63 (the Montgomery bound).
constexpr std::uint64_t kOddPrimes[] = {3ULL,
                                        23ULL,
                                        3599462771108323727ULL,
                                        1799731385554161863ULL,
                                        2305843009213693951ULL,
                                        9223372036854775783ULL};

std::vector<std::uint64_t> edge_values(std::uint64_t m) {
  return {0, 1, m - 1, m, m + 1, std::uint64_t{1} << 63, ~std::uint64_t{0}};
}

// Euler's criterion a^((n-1)/2) mod n, read as 1, -1 or 0, for odd prime n.
int euler_criterion(std::uint64_t a, std::uint64_t n) {
  const std::uint64_t r = powmod(a, (n - 1) / 2, n);
  if (r == 0) return 0;
  if (r == 1) return 1;
  EXPECT_EQ(r, n - 1) << "a=" << a << " n=" << n;
  return -1;
}

TEST(MulMod, SmallValues) {
  EXPECT_EQ(mulmod(3, 4, 5), 2u);
  EXPECT_EQ(mulmod(0, 7, 13), 0u);
  EXPECT_EQ(mulmod(12, 12, 13), 1u);
}

TEST(MulMod, LargeValuesNoOverflow) {
  const std::uint64_t m = 0xFFFFFFFFFFFFFFC5ULL;  // largest 64-bit prime
  const std::uint64_t a = m - 1;
  // (m-1)^2 mod m = 1
  EXPECT_EQ(mulmod(a, a, m), 1u);
}

TEST(PowMod, SmallValues) {
  EXPECT_EQ(powmod(2, 10, 1000), 24u);
  EXPECT_EQ(powmod(5, 0, 7), 1u);
  EXPECT_EQ(powmod(5, 1, 7), 5u);
  EXPECT_EQ(powmod(0, 5, 7), 0u);
  EXPECT_EQ(powmod(3, 100, 1), 0u);
}

TEST(PowMod, FermatLittleTheorem) {
  stats::Rng rng(1);
  const std::uint64_t p = 1000000007ULL;
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = 1 + rng.below(p - 1);
    EXPECT_EQ(powmod(a, p - 1, p), 1u);
  }
}

TEST(InvMod, InverseProperty) {
  stats::Rng rng(2);
  const std::uint64_t p = 2305843009213693951ULL;  // 2^61 - 1
  for (int i = 0; i < 50; ++i) {
    const std::uint64_t a = 1 + rng.below(p - 1);
    EXPECT_EQ(mulmod(a, invmod(a, p), p), 1u);
  }
}

TEST(InvMod, NonInvertibleThrows) {
  EXPECT_THROW((void)invmod(0, 7), UsageError);
  EXPECT_THROW((void)invmod(6, 9), UsageError);  // gcd(6,9)=3
}

TEST(InvMod, CompositeModulusCoprimeWorks) {
  EXPECT_EQ(mulmod(7, invmod(7, 9), 9), 1u);
}

TEST(Montgomery, EdgeValuesMatchMulmodAndPowmod) {
  for (const std::uint64_t m : kOddPrimes) {
    const Montgomery mont(m);
    EXPECT_EQ(mont.from(mont.one()), 1u) << "m=" << m;
    for (const std::uint64_t a : edge_values(m)) {
      EXPECT_EQ(mont.from(mont.to(a)), a % m) << "m=" << m << " a=" << a;
      for (const std::uint64_t b : edge_values(m)) {
        SCOPED_TRACE(::testing::Message() << "m=" << m << " a=" << a << " b=" << b);
        EXPECT_EQ(mont.from(mont.mul(mont.to(a), mont.to(b))), mulmod(a, b, m));
        EXPECT_EQ(mont.mul(mont.to(a), b), mulmod(a, b, m));
        EXPECT_EQ(mont.from(mont.pow(mont.to(a), b)), powmod(a, b, m));
      }
    }
  }
}

TEST(Montgomery, RandomTriplesMatchMulmodAndPowmod) {
  stats::Rng rng(15);
  for (const std::uint64_t m : kOddPrimes) {
    const Montgomery mont(m);
    int mismatches = 0;
    for (int i = 0; i < 100000 && mismatches < 5; ++i) {
      const std::uint64_t a = rng();
      const std::uint64_t b = rng();
      const std::uint64_t e = rng();
      const bool ok = mont.from(mont.to(a)) == a % m &&
                      mont.from(mont.mul(mont.to(a), mont.to(b))) == mulmod(a, b, m) &&
                      mont.mul(mont.to(a), b) == mulmod(a, b, m) &&
                      mont.from(mont.pow(mont.to(a), e)) == powmod(a, e, m);
      if (!ok) {
        ++mismatches;
        ADD_FAILURE() << "m=" << m << " a=" << a << " b=" << b << " e=" << e;
      }
    }
  }
}

TEST(Montgomery, RejectsEvenAndOversizedModuli) {
  EXPECT_THROW(Montgomery(0), UsageError);
  EXPECT_THROW(Montgomery(24), UsageError);
  EXPECT_THROW(Montgomery(std::uint64_t{1} << 63), UsageError);
  EXPECT_THROW(Montgomery(0xFFFFFFFFFFFFFFC5ULL), UsageError);  // prime, but >= 2^63
  EXPECT_NO_THROW(Montgomery((std::uint64_t{1} << 63) - 1));
}

TEST(Jacobi, MatchesEulerCriterionForOddPrimes) {
  stats::Rng rng(16);
  for (const std::uint64_t n : kOddPrimes) {
    for (const std::uint64_t a : edge_values(n))
      EXPECT_EQ(jacobi(a, n), euler_criterion(a, n)) << "a=" << a << " n=" << n;
    int mismatches = 0;
    for (int i = 0; i < 100000 && mismatches < 5; ++i) {
      const std::uint64_t a = rng();
      if (jacobi(a, n) != euler_criterion(a, n)) {
        ++mismatches;
        ADD_FAILURE() << "a=" << a << " n=" << n;
      }
    }
  }
}

TEST(Jacobi, IsTheProductOfLegendreSymbolsForSmallOddModuli) {
  // The binary algorithm passes through composite moduli even when n is
  // prime, so check the definition on them directly: (a/n) is the product
  // of (a/p) over the prime factors p of n, with multiplicity, and (a/1) = 1.
  for (std::uint64_t n = 1; n < 256; n += 2) {
    for (std::uint64_t a = 0; a < 600; ++a) {
      int expected = 1;
      std::uint64_t rest = n;
      for (std::uint64_t p = 3; rest > 1; p += 2) {
        for (; rest % p == 0; rest /= p) expected *= euler_criterion(a, p);
      }
      EXPECT_EQ(jacobi(a, n), expected) << "a=" << a << " n=" << n;
    }
  }
}

TEST(IsPrime, SmallNumbers) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_FALSE(is_prime_u64(91));  // 7 * 13
}

TEST(IsPrime, KnownLargePrimes) {
  EXPECT_TRUE(is_prime_u64(2305843009213693951ULL));  // 2^61 - 1 (Mersenne)
  EXPECT_TRUE(is_prime_u64(0xFFFFFFFFFFFFFFC5ULL));   // 2^64 - 59
  EXPECT_TRUE(is_prime_u64(3599462771108323727ULL));  // the standard safe prime p
  EXPECT_TRUE(is_prime_u64(1799731385554161863ULL));  // its q = (p-1)/2
}

TEST(IsPrime, KnownComposites) {
  EXPECT_FALSE(is_prime_u64(2305843009213693953ULL));  // 2^61 + 1
  EXPECT_FALSE(is_prime_u64(3215031751ULL));           // strong pseudoprime to bases 2,3,5,7
  EXPECT_FALSE(is_prime_u64(341550071728321ULL));      // pseudoprime to bases up to 17
}

TEST(IsPrime, CarmichaelNumbers) {
  EXPECT_FALSE(is_prime_u64(561));
  EXPECT_FALSE(is_prime_u64(41041));
  EXPECT_FALSE(is_prime_u64(825265));
}

}  // namespace
}  // namespace simulcast::crypto
