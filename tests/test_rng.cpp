#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace anole {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  const int n = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(5);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

/// The bits of the next few draws, mixing normals (which may consume a
/// held-back half) with uniforms (which never do).
std::vector<std::uint64_t> follow_up_bits(Rng& rng) {
  std::vector<std::uint64_t> bits;
  for (double v : {rng.normal(), rng.uniform(), rng.normal(), rng.normal(),
                   rng.uniform(), rng.normal()}) {
    bits.push_back(std::bit_cast<std::uint64_t>(v));
  }
  bits.push_back(rng());
  return bits;
}

TEST(RngSkipNormals, MatchesThatManyNormalCalls) {
  for (bool cached_half : {false, true}) {
    for (std::size_t n = 0; n <= 7; ++n) {
      SCOPED_TRACE("n " + std::to_string(n) + " cached " +
                   std::to_string(cached_half));
      Rng drawn(900 + n);
      Rng skipped(900 + n);
      if (cached_half) {
        // One normal() leaves the pair's second half cached in both.
        EXPECT_EQ(drawn.normal(), skipped.normal());
      }
      for (std::size_t i = 0; i < n; ++i) (void)drawn.normal();
      skipped.skip_normals(n);
      EXPECT_EQ(follow_up_bits(drawn), follow_up_bits(skipped));
    }
  }
}

TEST(RngSkipNormals, UniformAfterAnOddSkipLeavesTheHalfForTheNextNormal) {
  Rng drawn(17);
  Rng skipped(17);
  (void)drawn.normal();
  skipped.skip_normals(1);
  // The held-back half survives interleaved uniforms and raw draws.
  EXPECT_EQ(drawn.uniform(), skipped.uniform());
  EXPECT_EQ(drawn(), skipped());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(drawn.normal()),
            std::bit_cast<std::uint64_t>(skipped.normal()));
  EXPECT_EQ(drawn(), skipped());
}

TEST(RngSkipNormals, LongRandomInterleavingStaysBitIdentical) {
  Rng plan(5);
  Rng drawn(6);
  Rng skipped(6);
  for (int step = 0; step < 5000; ++step) {
    const std::size_t n = plan.uniform_index(9);
    for (std::size_t i = 0; i < n; ++i) (void)drawn.normal();
    skipped.skip_normals(n);
    if (plan.bernoulli(0.3)) {
      ASSERT_EQ(drawn.uniform(), skipped.uniform());
    }
    ASSERT_EQ(std::bit_cast<std::uint64_t>(drawn.normal()),
              std::bit_cast<std::uint64_t>(skipped.normal()))
        << "step " << step;
  }
}

TEST(Rng, PoissonMeanMatchesRate) {
  Rng rng(9);
  for (double lambda : {0.5, 3.0, 12.0, 40.0}) {
    double sum = 0.0;
    const int n = 8000;
    for (int i = 0; i < n; ++i) sum += rng.poisson(lambda);
    EXPECT_NEAR(sum / n, lambda, std::max(0.1, lambda * 0.06))
        << "lambda=" << lambda;
  }
}

TEST(Rng, PoissonZeroRate) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.poisson(0.0), 0);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, RandomPermutationIsPermutation) {
  Rng rng(29);
  const auto perm = random_permutation(50, rng);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.rbegin(), 49u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

/// Beta moments across a grid of (alpha, beta) parameters.
class BetaMomentsTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(BetaMomentsTest, MeanMatchesClosedForm) {
  const auto [alpha, beta] = GetParam();
  Rng rng(37);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.beta(alpha, beta);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, alpha / (alpha + beta), 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BetaMomentsTest,
    ::testing::Values(std::make_pair(1.0, 1.0), std::make_pair(2.0, 5.0),
                      std::make_pair(5.0, 2.0), std::make_pair(0.5, 0.5),
                      std::make_pair(10.0, 10.0), std::make_pair(1.0, 9.0)));

/// Gamma mean equals shape for unit scale.
class GammaMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(GammaMomentsTest, MeanMatchesShape) {
  const double shape = GetParam();
  Rng rng(41);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(shape);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, shape, shape * 0.05 + 0.02);
}

INSTANTIATE_TEST_SUITE_P(Grid, GammaMomentsTest,
                         ::testing::Values(0.3, 0.9, 1.0, 2.5, 7.0));

}  // namespace
}  // namespace anole
