#include "math/regression.hpp"

#include <cmath>
#include <numeric>
#include <utility>

#include "util/check.hpp"

namespace poco::math
{

namespace
{

/**
 * Solve a x = b for the p x p row-major @p a by Gaussian elimination
 * with partial pivoting.
 *
 * @throws poco::FatalError if a pivot falls below 1e-12.
 */
std::vector<double>
solvePivoted(std::vector<double> a, std::vector<double> b)
{
    const std::size_t p = b.size();
    const auto at = [&a, p](std::size_t r, std::size_t c) -> double& {
        return a[r * p + c];
    };

    for (std::size_t col = 0; col < p; ++col) {
        // Partial pivoting: bring the largest remaining entry up.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < p; ++r)
            if (std::abs(at(r, col)) > std::abs(at(pivot, col)))
                pivot = r;
        if (std::abs(at(pivot, col)) < 1e-12)
            poco::fatal("singular normal equations in fitOls");
        if (pivot != col) {
            for (std::size_t c = 0; c < p; ++c)
                std::swap(at(pivot, c), at(col, c));
            std::swap(b[pivot], b[col]);
        }
        const double inv = 1.0 / at(col, col);
        for (std::size_t r = col + 1; r < p; ++r) {
            const double factor = at(r, col) * inv;
            if (factor == 0.0)
                continue;
            at(r, col) = 0.0;
            for (std::size_t c = col + 1; c < p; ++c)
                at(r, c) -= factor * at(col, c);
            b[r] -= factor * b[col];
        }
    }

    std::vector<double> x(p, 0.0);
    for (std::size_t ri = p; ri-- > 0;) {
        double acc = b[ri];
        for (std::size_t c = ri + 1; c < p; ++c)
            acc -= at(ri, c) * x[c];
        x[ri] = acc / at(ri, ri);
    }
    return x;
}

} // namespace

double
OlsResult::predict(const std::vector<double>& x) const
{
    POCO_REQUIRE(x.size() == numPredictors(),
                 "feature arity must match fitted model");
    double y = coefficients[0];
    for (std::size_t j = 0; j < x.size(); ++j)
        y += coefficients[j + 1] * x[j];
    return y;
}

OlsResult
fitOls(MatrixView x, const std::vector<double>& y,
       bool fit_intercept)
{
    POCO_REQUIRE(x.rows >= 1, "OLS needs at least one sample");
    POCO_REQUIRE(x.rows == y.size(),
                 "OLS feature/target size mismatch");
    const std::size_t n = x.rows;
    const std::size_t k = x.cols;
    POCO_REQUIRE(k >= 1, "OLS needs at least one predictor");

    // Build the design including the (optional) intercept column so the
    // same normal-equation path handles both cases.
    const std::size_t p = k + (fit_intercept ? 1 : 0);
    POCO_REQUIRE(n >= p, "OLS needs at least as many samples as params");

    std::vector<double> design(n * p);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t c = i * p;
        if (fit_intercept)
            design[c++] = 1.0;
        for (std::size_t j = 0; j < k; ++j)
            design[c++] = x(i, j);
    }

    // Normal equations: row r of X'X and entry r of X'y each sum over
    // the samples in ascending order; X'X skips zero design entries.
    std::vector<double> xtx(p * p, 0.0);
    std::vector<double> xty(p, 0.0);
    for (std::size_t r = 0; r < p; ++r) {
        for (std::size_t i = 0; i < n; ++i) {
            const double a = design[i * p + r];
            xty[r] += a * y[i];
            if (a == 0.0)
                continue;
            for (std::size_t c = 0; c < p; ++c)
                xtx[r * p + c] += a * design[i * p + c];
        }
    }

    const std::vector<double> beta =
        solvePivoted(std::move(xtx), std::move(xty));

    OlsResult result;
    result.n = n;
    result.coefficients.resize(k + 1, 0.0);
    std::size_t c = 0;
    if (fit_intercept)
        result.coefficients[0] = beta[c++];
    for (std::size_t j = 0; j < k; ++j)
        result.coefficients[j + 1] = beta[c++];

    std::vector<double> predicted(n);
    std::vector<double> features(k);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < k; ++j)
            features[j] = x(i, j);
        predicted[i] = result.predict(features);
    }
    result.r_squared = rSquared(y, predicted);
    result.rss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double res = y[i] - predicted[i];
        result.rss += res * res;
    }
    return result;
}

double
rSquared(const std::vector<double>& observed,
         const std::vector<double>& predicted)
{
    POCO_REQUIRE(observed.size() == predicted.size(),
                 "rSquared needs equal-length vectors");
    POCO_REQUIRE(!observed.empty(), "rSquared needs at least one sample");
    const double mean =
        std::accumulate(observed.begin(), observed.end(), 0.0) /
        static_cast<double>(observed.size());
    double ss_res = 0.0;
    double ss_tot = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        const double res = observed[i] - predicted[i];
        const double dev = observed[i] - mean;
        ss_res += res * res;
        ss_tot += dev * dev;
    }
    if (ss_tot == 0.0)
        return ss_res == 0.0 ? 1.0 : 0.0;
    return 1.0 - ss_res / ss_tot;
}

} // namespace poco::math
