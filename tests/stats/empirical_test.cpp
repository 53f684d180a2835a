#include "stats/empirical.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "stats/rng.h"

namespace simulcast::stats {
namespace {

TEST(EmpiricalDist, CountsAndProb) {
  EmpiricalDist d(2);
  d.add(BitVec::from_string("00"));
  d.add(BitVec::from_string("01"));
  d.add(BitVec::from_string("01"));
  d.add(BitVec::from_string("11"));
  EXPECT_EQ(d.count(), 4u);
  EXPECT_DOUBLE_EQ(d.prob([](const BitVec& v) { return v.get(1); }), 0.75);
  EXPECT_DOUBLE_EQ(d.marginal_one(0), 0.25);
  EXPECT_DOUBLE_EQ(d.marginal_one(1), 0.75);
}

TEST(EmpiricalDist, WrongWidthThrows) {
  EmpiricalDist d(2);
  EXPECT_THROW(d.add(BitVec::from_string("000")), UsageError);
}

TEST(EmpiricalDist, JointAndConditional) {
  EmpiricalDist d(2);
  for (int i = 0; i < 10; ++i) d.add(BitVec::from_string("11"));
  for (int i = 0; i < 10; ++i) d.add(BitVec::from_string("00"));
  const Event bit0 = [](const BitVec& v) { return v.get(0); };
  const Event bit1 = [](const BitVec& v) { return v.get(1); };
  EXPECT_DOUBLE_EQ(d.joint(bit0, bit1), 0.5);
  EXPECT_DOUBLE_EQ(*d.conditional(bit0, bit1), 1.0);
  const Event never = [](const BitVec&) { return false; };
  EXPECT_FALSE(d.conditional(bit0, never).has_value());
}

TEST(EmpiricalDist, EmptyDistributionProbZero) {
  EmpiricalDist d(3);
  EXPECT_DOUBLE_EQ(d.prob([](const BitVec&) { return true; }), 0.0);
}

TEST(EmpiricalDist, TvDistanceIdenticalIsZero) {
  EmpiricalDist a(1), b(1);
  for (int i = 0; i < 5; ++i) {
    a.add(BitVec(1, 1));
    b.add(BitVec(1, 1));
  }
  EXPECT_DOUBLE_EQ(a.tv_distance(b), 0.0);
}

TEST(EmpiricalDist, TvDistanceDisjointIsOne) {
  EmpiricalDist a(1), b(1);
  a.add(BitVec(1, 0));
  b.add(BitVec(1, 1));
  EXPECT_DOUBLE_EQ(a.tv_distance(b), 1.0);
}

TEST(EmpiricalDist, TvDistanceHalfOverlap) {
  EmpiricalDist a(1), b(1);
  a.add(BitVec(1, 0));
  a.add(BitVec(1, 1));
  b.add(BitVec(1, 1));
  EXPECT_DOUBLE_EQ(a.tv_distance(b), 0.5);
}

TEST(ExactDist, UniformPmf) {
  const ExactDist u = ExactDist::uniform(3);
  for (std::size_t v = 0; v < 8; ++v) EXPECT_DOUBLE_EQ(u.pmf(BitVec(3, v)), 1.0 / 8.0);
}

TEST(ExactDist, SingletonPmf) {
  const ExactDist s = ExactDist::singleton(BitVec::from_string("101"));
  EXPECT_DOUBLE_EQ(s.pmf(BitVec::from_string("101")), 1.0);
  EXPECT_DOUBLE_EQ(s.pmf(BitVec::from_string("000")), 0.0);
}

TEST(ExactDist, ProductMarginals) {
  const ExactDist d = ExactDist::product({0.2, 0.7});
  EXPECT_NEAR(d.marginal({0}, BitVec(1, 1)), 0.2, 1e-12);
  EXPECT_NEAR(d.marginal({1}, BitVec(1, 1)), 0.7, 1e-12);
  EXPECT_NEAR(d.pmf(BitVec::from_string("11")), 0.2 * 0.7, 1e-12);
}

TEST(ExactDist, RejectsBadPmf) {
  EXPECT_THROW(ExactDist(1, {0.5, 0.6}), UsageError);
  EXPECT_THROW(ExactDist(2, {0.5, 0.5}), UsageError);
}

TEST(ExactDist, ConditionalOnCopyDistribution) {
  // x0 uniform, x1 = x0.
  std::vector<double> pmf = {0.5, 0.0, 0.0, 0.5};  // 00 and 11
  const ExactDist d(2, std::move(pmf));
  EXPECT_NEAR(*d.conditional({1}, BitVec(1, 1), {0}, BitVec(1, 1)), 1.0, 1e-12);
  EXPECT_NEAR(*d.conditional({1}, BitVec(1, 1), {0}, BitVec(1, 0)), 0.0, 1e-12);
  EXPECT_FALSE(d.conditional({1}, BitVec(1, 1), {0, 1}, BitVec::from_string("01")).has_value());
}

TEST(ExactDist, ProductOfMarginalsOnProductIsIdentity) {
  const ExactDist d = ExactDist::product({0.3, 0.8, 0.5});
  EXPECT_NEAR(d.tv_distance(d.product_of_marginals()), 0.0, 1e-12);
}

TEST(ExactDist, ProductOfMarginalsOnCopyIsFar) {
  const ExactDist copy(2, {0.5, 0.0, 0.0, 0.5});
  const ExactDist prod = copy.product_of_marginals();
  EXPECT_NEAR(prod.pmf(BitVec::from_string("10")), 0.25, 1e-12);
  EXPECT_NEAR(copy.tv_distance(prod), 0.5, 1e-12);
}

TEST(ExactDist, EmpiricalSamplesMatchExact) {
  // Sample from a product distribution and compare the empirical histogram.
  const ExactDist model = ExactDist::product({0.25, 0.5});
  Rng rng(1234);
  EmpiricalDist emp(2);
  for (int i = 0; i < 200000; ++i) {
    BitVec v(2);
    v.set(0, rng.bernoulli(0.25));
    v.set(1, rng.bernoulli(0.5));
    emp.add(v);
  }
  for (std::size_t x = 0; x < 4; ++x) {
    const BitVec v(2, x);
    const double emp_p =
        emp.prob([&](const BitVec& s) { return s == v; });
    EXPECT_NEAR(emp_p, model.pmf(v), 0.01);
  }
}

}  // namespace
}  // namespace simulcast::stats
