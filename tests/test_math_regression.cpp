/**
 * @file
 * Tests for ordinary least squares regression, including the
 * parameter-recovery property that underpins the utility fitter, the
 * pivoted solve of its normal equations, and R-squared.
 * fitOls takes a math::MatrixView design; literals go through the
 * flat() packer and incremental designs through FlatMatrix.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "flat_matrix.hpp"
#include "math/regression.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace poco::math
{
namespace
{

using poco::test::FlatMatrix;
using poco::test::flat;

/** Append one design row to a flat row-major matrix. */
void
pushRow(FlatMatrix& x, const std::vector<double>& row)
{
    if (x.cols == 0)
        x.cols = row.size();
    ASSERT_EQ(row.size(), x.cols);
    x.cells.insert(x.cells.end(), row.begin(), row.end());
    ++x.rows;
}

TEST(Ols, ExactLineRecovered)
{
    // y = 2 + 3x, noiseless.
    FlatMatrix x;
    std::vector<double> y;
    for (int i = 0; i < 10; ++i) {
        pushRow(x, {static_cast<double>(i)});
        y.push_back(2.0 + 3.0 * i);
    }
    const OlsResult fit = fitOls(x, y);
    EXPECT_NEAR(fit.intercept(), 2.0, 1e-10);
    EXPECT_NEAR(fit.beta(0), 3.0, 1e-10);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
    EXPECT_NEAR(fit.rss, 0.0, 1e-10);
    EXPECT_EQ(fit.n, 10u);
    EXPECT_EQ(fit.numPredictors(), 1u);
}

TEST(Ols, NoInterceptForcesOrigin)
{
    const FlatMatrix x = flat({{1.0}, {2.0}, {3.0}});
    const std::vector<double> y = {2.0, 4.0, 6.0};
    const OlsResult fit = fitOls(x, y, /*fit_intercept=*/false);
    EXPECT_DOUBLE_EQ(fit.intercept(), 0.0);
    EXPECT_NEAR(fit.beta(0), 2.0, 1e-12);
}

TEST(Ols, PredictMatchesCoefficients)
{
    const FlatMatrix x = flat(
        {{1.0, 2.0}, {2.0, 1.0}, {3.0, 3.0}, {0.0, 1.0}});
    std::vector<double> y;
    for (std::size_t i = 0; i < x.rows; ++i)
        y.push_back(1.0 + 2.0 * x.at(i, 0) - 0.5 * x.at(i, 1));
    const OlsResult fit = fitOls(x, y);
    EXPECT_NEAR(fit.predict({4.0, 2.0}), 1.0 + 8.0 - 1.0, 1e-9);
    EXPECT_THROW(fit.predict({1.0}), poco::FatalError);
}

TEST(Ols, InputValidation)
{
    EXPECT_THROW(fitOls(MatrixView{}, {}), poco::FatalError);
    EXPECT_THROW(fitOls(flat({{1.0}}), {1.0, 2.0}),
                 poco::FatalError);
    // Ragged nested literals die in the flat() packer, before any
    // view exists.
    EXPECT_THROW(flat({{1.0}, {1.0, 2.0}}), poco::FatalError);
    // Fewer samples than parameters.
    EXPECT_THROW(fitOls(flat({{1.0, 2.0}}), {1.0}),
                 poco::FatalError);
    // Collinear design -> singular normal equations.
    EXPECT_THROW(fitOls(flat({{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}}),
                        {1.0, 2.0, 3.0}),
                 poco::FatalError);
}

/**
 * Property: planted multi-variate coefficients are recovered from
 * noisy data within statistical tolerance, and R-squared reflects
 * the signal-to-noise ratio.
 */
class OlsRecovery : public ::testing::TestWithParam<double>
{
};

TEST_P(OlsRecovery, RecoversPlantedCoefficients)
{
    const double noise = GetParam();
    poco::Rng rng(static_cast<std::uint64_t>(noise * 1000) + 3);
    const std::vector<double> beta = {0.7, -1.3, 2.1};
    const double intercept = 4.0;

    FlatMatrix x;
    std::vector<double> y;
    for (int i = 0; i < 400; ++i) {
        const std::vector<double> row = {rng.uniform(0.0, 10.0),
                                         rng.uniform(-5.0, 5.0),
                                         rng.uniform(1.0, 3.0)};
        double target = intercept;
        for (std::size_t j = 0; j < beta.size(); ++j)
            target += beta[j] * row[j];
        target += rng.normal(0.0, noise);
        pushRow(x, row);
        y.push_back(target);
    }

    const OlsResult fit = fitOls(x, y);
    const double tol = 0.02 + 0.25 * noise;
    EXPECT_NEAR(fit.intercept(), intercept, tol * 4);
    for (std::size_t j = 0; j < beta.size(); ++j)
        EXPECT_NEAR(fit.beta(j), beta[j], tol)
            << "coefficient " << j << " at noise " << noise;
    if (noise == 0.0)
        EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
    else
        EXPECT_GT(fit.r_squared, 0.5);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, OlsRecovery,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0, 2.0));

/**
 * Property: the log-transform pipeline used for Cobb-Douglas fits
 * recovers planted exponents (this is the exact shape of the
 * performance regression in Section IV-A).
 */
TEST(Ols, LogLogRecoversExponents)
{
    poco::Rng rng(77);
    const double a0 = 5.0, a1 = 0.6, a2 = 0.4;
    FlatMatrix x;
    std::vector<double> y;
    for (int c = 1; c <= 12; ++c) {
        for (int w = 2; w <= 20; w += 2) {
            const double perf = a0 * std::pow(c, a1) * std::pow(w, a2);
            pushRow(x, {std::log(c), std::log(w)});
            y.push_back(std::log(perf) + rng.normal(0.0, 0.01));
        }
    }
    const OlsResult fit = fitOls(x, y);
    EXPECT_NEAR(std::exp(fit.intercept()), a0, 0.1);
    EXPECT_NEAR(fit.beta(0), a1, 0.02);
    EXPECT_NEAR(fit.beta(1), a2, 0.02);
    EXPECT_GT(fit.r_squared, 0.99);
}

TEST(Solve, KnownSystem)
{
    // A square design is solved exactly: 2b1 + b2 = 5, b1 - b2 = 1
    // -> b1 = 2, b2 = 1.
    const OlsResult fit = fitOls(flat({{2.0, 1.0}, {1.0, -1.0}}),
                                 {5.0, 1.0}, /*fit_intercept=*/false);
    EXPECT_DOUBLE_EQ(fit.intercept(), 0.0);
    EXPECT_NEAR(fit.beta(0), 2.0, 1e-12);
    EXPECT_NEAR(fit.beta(1), 1.0, 1e-12);
    EXPECT_NEAR(fit.rss, 0.0, 1e-20);
}

TEST(Solve, RequiresPivoting)
{
    // X'X = [[3, 33], [33, 365]]: the predictor's mean magnitude
    // exceeds 1, so the second row carries the larger first-column
    // entry and elimination must swap it up.
    const OlsResult fit =
        fitOls(flat({{10.0}, {11.0}, {12.0}}), {34.0, 37.0, 40.0});
    EXPECT_NEAR(fit.intercept(), 4.0, 1e-9);
    EXPECT_NEAR(fit.beta(0), 3.0, 1e-10);
    EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Solve, SingularThrows)
{
    // Exactly collinear predictors.
    EXPECT_THROW(fitOls(flat({{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}}),
                        {1.0, 2.0, 3.0}, /*fit_intercept=*/false),
                 poco::FatalError);
    // A constant predictor is collinear with the intercept.
    EXPECT_THROW(fitOls(flat({{2.0}, {2.0}, {2.0}}), {1.0, 2.0, 3.0}),
                 poco::FatalError);
}

/**
 * Property: a planted intercept and k coefficients are recovered from
 * a noiseless random design, and the residual vanishes.
 */
class SolveProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SolveProperty, ResidualIsTiny)
{
    const auto k = static_cast<std::size_t>(GetParam());
    poco::Rng rng(static_cast<std::uint64_t>(k) * 101);
    std::vector<double> beta(k);
    for (double& b : beta)
        b = rng.uniform(-10.0, 10.0);
    const double intercept = rng.uniform(-10.0, 10.0);

    const std::size_t n = 4 * (k + 1);
    FlatMatrix x(n, k);
    std::vector<double> y(n, intercept);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            x.at(i, j) = rng.uniform(-1.0, 1.0);
            y[i] += beta[j] * x.at(i, j);
        }
    }

    const OlsResult fit = fitOls(x, y);
    EXPECT_NEAR(fit.intercept(), intercept, 1e-8);
    for (std::size_t j = 0; j < k; ++j)
        EXPECT_NEAR(fit.beta(j), beta[j], 1e-8) << "coefficient " << j;
    EXPECT_NEAR(fit.rss, 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(RSquared, PerfectFitIsOne)
{
    const std::vector<double> y = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(rSquared(y, y), 1.0);
}

TEST(RSquared, MeanPredictorIsZero)
{
    const std::vector<double> y = {1.0, 2.0, 3.0};
    const std::vector<double> mean = {2.0, 2.0, 2.0};
    EXPECT_NEAR(rSquared(y, mean), 0.0, 1e-12);
}

TEST(RSquared, WorseThanMeanIsNegative)
{
    const std::vector<double> y = {1.0, 2.0, 3.0};
    const std::vector<double> bad = {3.0, 2.0, 1.0};
    EXPECT_LT(rSquared(y, bad), 0.0);
}

TEST(RSquared, ConstantObservations)
{
    const std::vector<double> y = {2.0, 2.0};
    EXPECT_DOUBLE_EQ(rSquared(y, y), 1.0);
    EXPECT_DOUBLE_EQ(rSquared(y, {1.0, 3.0}), 0.0);
}

TEST(RSquared, RejectsMismatchedLengths)
{
    EXPECT_THROW(rSquared({1.0}, {1.0, 2.0}), poco::FatalError);
    EXPECT_THROW(rSquared({}, {}), poco::FatalError);
}

} // namespace
} // namespace poco::math
