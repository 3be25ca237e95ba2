/**
 * @file
 * Ordinary least squares linear regression.
 *
 * Pocolo fits its Cobb-Douglas indirect utility model with two OLS
 * regressions (Section IV-A of the paper):
 *   log(perf)  = log(a0) + sum_j a_j * log(r_j)      (performance)
 *   power      = p_static + sum_j p_j * r_j           (power)
 * Both are linear in the parameters, so a single OLS kernel serves.
 * It owns its arithmetic: the design, the normal equations and their
 * solve all live on flat row-major buffers in regression.cpp.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "math/matrix_view.hpp"

namespace poco::math
{

/** Result of an OLS fit. */
struct OlsResult
{
    /** Fitted coefficients: [intercept, beta_1, ..., beta_k]. */
    std::vector<double> coefficients;
    /** Coefficient of determination on the training data. */
    double r_squared = 0.0;
    /** Residual sum of squares. */
    double rss = 0.0;
    /** Number of samples used. */
    std::size_t n = 0;

    double intercept() const { return coefficients.at(0); }
    double beta(std::size_t j) const { return coefficients.at(j + 1); }
    std::size_t numPredictors() const
    {
        return coefficients.empty() ? 0 : coefficients.size() - 1;
    }

    /** Predict for a single feature row (length = numPredictors()). */
    double predict(const std::vector<double>& x) const;
};

/**
 * Fit y = b0 + sum_j b_j x_j by least squares via the normal equations
 * (X'X) b = X'y solved with partial pivoting. Designs here are tiny
 * (k <= 4, n <= a few hundred) so normal equations are accurate enough.
 *
 * @param x Design matrix view: one row per sample, one column per
 *        predictor (k >= 1). Callers pack samples into a flat
 *        row-major buffer and view it (MatrixView::ofRows).
 * @param y Targets, one per design row.
 * @param fit_intercept When false, forces b0 = 0 (used for models where
 *        the static term is measured separately).
 * @throws poco::FatalError on shape errors or a singular design
 *         (e.g. fewer samples than parameters, collinear features).
 */
OlsResult fitOls(MatrixView x, const std::vector<double>& y,
                 bool fit_intercept = true);

/**
 * Coefficient of determination (R-squared) between observations and
 * model predictions. Returns 1 for a perfect fit; can be negative for
 * fits worse than the mean predictor.
 *
 * @param observed Ground-truth values.
 * @param predicted Model predictions, same length.
 * @throws poco::FatalError if the lengths differ or are zero.
 */
double rSquared(const std::vector<double>& observed,
                const std::vector<double>& predicted);

} // namespace poco::math
