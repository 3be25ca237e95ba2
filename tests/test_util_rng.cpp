/**
 * @file
 * Tests for the deterministic random number generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace poco
{
namespace
{

/** Mean and population variance of @p xs. */
std::pair<double, double>
moments(const std::vector<double>& xs)
{
    const double n = static_cast<double>(xs.size());
    double sum = 0.0;
    for (const double x : xs)
        sum += x;
    const double mean = sum / n;
    double squares = 0.0;
    for (const double x : xs)
        squares += (x - mean) * (x - mean);
    return {mean, squares / n};
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (a.nextU64() == b.nextU64());
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    std::vector<double> us;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        us.push_back(u);
    }
    const auto [mean, variance] = moments(us);
    EXPECT_NEAR(mean, 0.5, 0.01);
    EXPECT_NEAR(variance, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        ASSERT_GE(u, -3.0);
        ASSERT_LT(u, 5.0);
    }
    EXPECT_THROW(rng.uniform(2.0, 1.0), FatalError);
}

TEST(Rng, UniformIntCoversRangeInclusively)
{
    Rng rng(11);
    std::set<int> seen;
    for (int i = 0; i < 2000; ++i) {
        const int v = rng.uniformInt(2, 6);
        ASSERT_GE(v, 2);
        ASSERT_LE(v, 6);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(rng.uniformInt(4, 4), 4);
    EXPECT_THROW(rng.uniformInt(3, 2), FatalError);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(13);
    std::vector<double> xs;
    for (int i = 0; i < 50000; ++i)
        xs.push_back(rng.normal(10.0, 3.0));
    const auto [mean, variance] = moments(xs);
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(std::sqrt(variance), 3.0, 0.1);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NoiseFactorMedianNearOne)
{
    Rng rng(19);
    std::vector<double> xs;
    for (int i = 0; i < 10001; ++i)
        xs.push_back(rng.noiseFactor(0.1));
    std::sort(xs.begin(), xs.end());
    EXPECT_NEAR(xs[xs.size() / 2], 1.0, 0.02);
    for (double x : xs)
        ASSERT_GT(x, 0.0);
}

TEST(Rng, NoiseFactorZeroSigmaIsIdentity)
{
    Rng rng(21);
    EXPECT_DOUBLE_EQ(rng.noiseFactor(0.0), 1.0);
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng rng(23);
    for (int n : {0, 1, 2, 10, 100}) {
        auto p = rng.permutation(n);
        ASSERT_EQ(p.size(), static_cast<std::size_t>(n));
        std::vector<int> sorted = p;
        std::sort(sorted.begin(), sorted.end());
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
    }
}

TEST(Rng, PermutationIsRoughlyUniform)
{
    // Each position should host each value ~equally often.
    Rng rng(29);
    constexpr int trials = 6000;
    int count_pos0_val0 = 0;
    for (int t = 0; t < trials; ++t) {
        auto p = rng.permutation(4);
        count_pos0_val0 += (p[0] == 0);
    }
    EXPECT_NEAR(count_pos0_val0 / static_cast<double>(trials), 0.25,
                0.03);
}

TEST(Rng, SplitProducesDecorrelatedStream)
{
    Rng parent(31);
    Rng child = parent.split();
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (parent.nextU64() == child.nextU64());
    EXPECT_LT(equal, 2);
}

TEST(SplitMix, KnownFirstOutputDeterministic)
{
    SplitMix64 a(0), b(0);
    EXPECT_EQ(a.next(), b.next());
    SplitMix64 c(1);
    EXPECT_NE(SplitMix64(0).next(), c.next());
}

} // namespace
} // namespace poco
