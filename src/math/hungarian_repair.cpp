#include "math/hungarian_repair.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.hpp"

namespace poco::math
{

namespace
{

constexpr double inf = std::numeric_limits<double>::infinity();

} // namespace

void
HungarianRepair::augment(int row1)
{
    const int m = static_cast<int>(cols_);
    std::vector<double> minv(cols_ + 1, inf);
    std::vector<char> used(cols_ + 1, 0);
    std::vector<int> way(cols_ + 1, 0);

    p_[0] = row1;
    int j0 = 0;
    do {
        used[static_cast<std::size_t>(j0)] = 1;
        const int i0 = p_[static_cast<std::size_t>(j0)];
        const double* row =
            cost_.data() + static_cast<std::size_t>(i0 - 1) * cols_;
        const double ui = u_[static_cast<std::size_t>(i0)];
        double delta = inf;
        int j1 = -1;
        for (int j = 1; j <= m; ++j) {
            if (used[static_cast<std::size_t>(j)])
                continue;
            const double cur = row[static_cast<std::size_t>(j - 1)] -
                               ui - v_[static_cast<std::size_t>(j)];
            if (cur < minv[static_cast<std::size_t>(j)]) {
                minv[static_cast<std::size_t>(j)] = cur;
                way[static_cast<std::size_t>(j)] = j0;
            }
            if (minv[static_cast<std::size_t>(j)] < delta) {
                delta = minv[static_cast<std::size_t>(j)];
                j1 = j;
            }
        }
        POCO_ASSERT(j1 != -1, "no augmenting column found");
        for (int j = 0; j <= m; ++j) {
            if (used[static_cast<std::size_t>(j)]) {
                u_[static_cast<std::size_t>(
                    p_[static_cast<std::size_t>(j)])] += delta;
                v_[static_cast<std::size_t>(j)] -= delta;
            } else {
                minv[static_cast<std::size_t>(j)] -= delta;
            }
        }
        j0 = j1;
    } while (p_[static_cast<std::size_t>(j0)] != 0);

    // Augment along the alternating path.
    do {
        const int j1 = way[static_cast<std::size_t>(j0)];
        p_[static_cast<std::size_t>(j0)] =
            p_[static_cast<std::size_t>(j1)];
        j0 = j1;
    } while (j0 != 0);
}

bool
HungarianRepair::verify() const
{
    // Sufficient optimality conditions for the min-cost transportation
    // LP (rows ==1, cols <=1): dual feasibility, tight matched edges,
    // non-positive column prices with negative prices only on matched
    // columns, and a complete row matching. Tolerance scales with the
    // cost magnitude so large benefit matrices don't false-fail.
    double scale = 1.0;
    for (const double c : cost_)
        scale = std::max(scale, std::abs(c));
    const double tol = 1e-9 * scale;

    std::vector<char> row_matched(rows_ + 1, 0);
    for (std::size_t j = 1; j <= cols_; ++j) {
        if (v_[j] > tol)
            return false;
        const int r = p_[j];
        if (v_[j] < -tol && r == 0)
            return false;
        if (r != 0) {
            if (row_matched[static_cast<std::size_t>(r)])
                return false;
            row_matched[static_cast<std::size_t>(r)] = 1;
        }
    }
    for (std::size_t i = 1; i <= rows_; ++i)
        if (!row_matched[i])
            return false;

    for (std::size_t i = 0; i < rows_; ++i) {
        for (std::size_t j = 0; j < cols_; ++j) {
            const double red = costAt(i, j) - u_[i + 1] - v_[j + 1];
            if (red < -tol)
                return false;
            if (p_[j + 1] == static_cast<int>(i) + 1 &&
                std::abs(red) > tol)
                return false;
        }
    }
    return true;
}

std::vector<int>
HungarianRepair::extract() const
{
    std::vector<int> assignment(rows_, -1);
    for (std::size_t j = 1; j <= cols_; ++j)
        if (p_[j] > 0)
            assignment[static_cast<std::size_t>(p_[j] - 1)] =
                static_cast<int>(j) - 1;
    return assignment;
}

std::vector<int>
HungarianRepair::solveFull(MatrixView value)
{
    requireAssignmentShape(value);
    rows_ = value.rows;
    cols_ = value.cols;

    cost_.resize(rows_ * cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        const double* __restrict__ src = value.row(i);
        double* __restrict__ dst = cost_.data() + i * cols_;
        for (std::size_t j = 0; j < cols_; ++j)
            dst[j] = -src[j];
    }

    u_.assign(rows_ + 1, 0.0);
    v_.assign(cols_ + 1, 0.0);
    p_.assign(cols_ + 1, 0);

    for (std::size_t i = 1; i <= rows_; ++i)
        augment(static_cast<int>(i));
    valid_ = true;
    return extract();
}

std::optional<std::vector<int>>
HungarianRepair::repairColumn(std::size_t col,
                              const std::vector<double>& colValues)
{
    POCO_REQUIRE(valid_, "repairColumn without retained state");
    POCO_REQUIRE(col < cols_, "repairColumn column out of range");
    POCO_REQUIRE(colValues.size() == rows_,
                 "repairColumn arity mismatch");

    for (std::size_t i = 0; i < rows_; ++i)
        cost_[i * cols_ + col] = -colValues[i];

    // Restore dual feasibility on the changed column, keeping the
    // column price non-positive (the <=1 dual sign constraint).
    double lo = inf;
    for (std::size_t i = 0; i < rows_; ++i)
        lo = std::min(lo, costAt(i, col) - u_[i + 1]);
    v_[col + 1] = std::min(0.0, lo);

    // Free whichever row held the column and re-match it.
    const int displaced = p_[col + 1];
    p_[col + 1] = 0;
    if (displaced != 0)
        augment(displaced);

    if (!verify()) {
        valid_ = false;
        return std::nullopt;
    }
    return extract();
}

} // namespace poco::math
