/**
 * @file
 * Tests for the two-phase simplex assignment-LP solver, and for the
 * tableau kernels under it: the cycling and degenerate instances
 * drive a SimplexTableau directly from a slack basis, so the Bland
 * fallback and the ratio-test tie-break stay covered on LPs that are
 * not assignments.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "math/hungarian.hpp"
#include "flat_matrix.hpp"
#include "math/simplex.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace poco::math
{
namespace
{

/**
 * The slack-basis tableau of max objective . x subject to
 * coeffs x <= rhs and x >= 0 (every rhs >= 0): row r is basic on its
 * slack, column n + r, and the objective is priced out.
 */
SimplexTableau
slackTableau(const std::vector<double>& objective,
             const poco::test::FlatMatrix& coeffs,
             const std::vector<double>& rhs)
{
    const std::size_t n = objective.size();
    const std::size_t m = coeffs.rows;
    SimplexTableau t(m, n + m);
    for (std::size_t r = 0; r < m; ++r) {
        const double* src = coeffs.view().row(r);
        std::copy(src, src + n, t.row(r));
        t.at(r, n + r) = 1.0;
        t.rhs(r) = rhs[r];
        t.basis()[r] = n + r;
    }
    std::vector<double> cost(objective);
    cost.resize(n + m, 0.0);
    t.setObjective(cost);
    return t;
}

/** Value of column @p j in the tableau's basic solution. */
double
valueOf(const SimplexTableau& t, std::size_t j)
{
    for (std::size_t r = 0; r < t.constraintRows(); ++r)
        if (t.basis()[r] == j)
            return t.rhs(r);
    return 0.0;
}

TEST(Simplex, DegenerateProblemTerminates)
{
    // Redundant constraints create degeneracy; Bland's rule must
    // still terminate at the optimum.
    SimplexTableau t = slackTableau(
        {1.0, 1.0},
        poco::test::flat(
            {{1.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {0.0, 1.0}}),
        {2.0, 2.0, 4.0, 3.0});
    ASSERT_TRUE(t.iterate());
    EXPECT_NEAR(t.objective(), 5.0, 1e-7);
}

TEST(Simplex, BealeCyclingInstanceTerminates)
{
    // Beale (1955): the classic instance on which Dantzig pricing
    // with naive tie-breaks cycles forever. The degenerate-pivot
    // fallback to Bland's rule must terminate at z = 0.05.
    SimplexTableau t = slackTableau(
        {0.75, -150.0, 0.02, -6.0},
        poco::test::flat({{0.25, -60.0, -1.0 / 25.0, 9.0},
                          {0.5, -90.0, -1.0 / 50.0, 3.0},
                          {0.0, 0.0, 1.0, 0.0}}),
        {0.0, 0.0, 1.0});
    ASSERT_TRUE(t.iterate());
    EXPECT_NEAR(t.objective(), 0.05, 1e-7);
    EXPECT_NEAR(valueOf(t, 2), 1.0, 1e-7);
}

TEST(Simplex, HighlyDegenerateTiesResolved)
{
    // Every constraint is active at the origin-adjacent optimum; the
    // ratio test sees nothing but zero-ratio ties and must still
    // make progress via its lowest-basic-variable tie-break.
    SimplexTableau t = slackTableau(
        {1.0, 1.0, 1.0},
        poco::test::flat({{1.0, -1.0, 0.0},
                          {1.0, 0.0, -1.0},
                          {0.0, 1.0, -1.0},
                          {1.0, 1.0, 1.0}}),
        {0.0, 0.0, 0.0, 9.0});
    ASSERT_TRUE(t.iterate());
    EXPECT_NEAR(t.objective(), 9.0, 1e-7);
    EXPECT_NEAR(valueOf(t, 2), 3.0, 1e-7);
}

TEST(AssignmentLp, TiedValuesStayIntegral)
{
    // A constant matrix makes every permutation optimal; the LP must
    // still return a 0/1 vertex (not a fractional interior point).
    const poco::test::FlatMatrix value(4, 4, 7.0);
    const auto a = solveAssignmentLp(value);
    std::vector<bool> used(4, false);
    for (int j : a) {
        ASSERT_GE(j, 0);
        ASSERT_LT(j, 4);
        EXPECT_FALSE(used[static_cast<std::size_t>(j)]);
        used[static_cast<std::size_t>(j)] = true;
    }
}

TEST(AssignmentLp, SimpleMatrix)
{
    // Diagonal is optimal.
    const poco::test::FlatMatrix value = poco::test::flat(
        {{10.0, 1.0, 1.0},
         {1.0, 10.0, 1.0},
         {1.0, 1.0, 10.0}});
    const auto a = solveAssignmentLp(value);
    EXPECT_EQ(a, (std::vector<int>{0, 1, 2}));
}

TEST(AssignmentLp, RectangularLeavesTasksFree)
{
    const poco::test::FlatMatrix value = poco::test::flat(
        {{1.0, 9.0, 2.0, 3.0},
         {8.0, 1.0, 2.0, 1.0}});
    const auto a = solveAssignmentLp(value);
    EXPECT_EQ(a, (std::vector<int>{1, 0}));
}

TEST(AssignmentLp, RejectsMoreAgentsThanTasks)
{
    const poco::test::FlatMatrix value =
        poco::test::flat({{1.0}, {2.0}});
    EXPECT_THROW(solveAssignmentLp(value), poco::FatalError);
}

/**
 * Property: on random assignment matrices the LP relaxation is
 * integral and matches the Hungarian and exhaustive optima.
 */
class LpVsHungarian : public ::testing::TestWithParam<int>
{
};

TEST_P(LpVsHungarian, AgreeOnRandomInstances)
{
    const int n = GetParam();
    for (int trial = 0; trial < 10; ++trial) {
        poco::Rng rng(static_cast<std::uint64_t>(n * 100 + trial));
        poco::test::FlatMatrix value(static_cast<std::size_t>(n),
                                     static_cast<std::size_t>(n));
        for (double& v : value.cells)
            v = rng.uniform(0.0, 100.0);

        const auto lp = solveAssignmentLp(value);
        const auto hungarian = solveAssignmentMax(value);
        const auto exhaustive = solveAssignmentExhaustive(value);

        const double v_lp = assignmentValue(value, lp);
        const double v_h = assignmentValue(value, hungarian);
        const double v_e = assignmentValue(value, exhaustive);
        EXPECT_NEAR(v_lp, v_e, 1e-6) << "LP vs exhaustive, n=" << n;
        EXPECT_NEAR(v_h, v_e, 1e-6)
            << "Hungarian vs exhaustive, n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LpVsHungarian,
                         ::testing::Values(2, 3, 4, 5, 6, 7));

/**
 * Tied instances: integer cells from a tiny range, or rows and
 * columns copied from each other, give several optimal assignments.
 * The exact solvers may pick different ones, but never a different
 * value; integer cells make every sum exact, so the comparison is
 * bitwise.
 */
TEST(TiedMatrices, ExactSolversAgreeOnValue)
{
    poco::Rng rng(1717);
    for (std::size_t rows = 1; rows <= 8; ++rows) {
        for (std::size_t extra = 0; extra <= 2; ++extra) {
            for (int variant = 0; variant < 3; ++variant) {
                const std::size_t cols = rows + extra;
                // Variant 0: cells 0-3. Variants 1 and 2: cells 0-20
                // or 0-3, then each row (column) past the first
                // copies a random earlier one or keeps its own.
                poco::test::FlatMatrix value(rows, cols);
                const int hi = variant == 1 ? 20 : 3;
                for (double& v : value.cells)
                    v = rng.uniformInt(0, hi);
                if (variant > 0) {
                    for (std::size_t i = 1; i < rows; ++i) {
                        const auto src = static_cast<std::size_t>(
                            rng.uniformInt(0, static_cast<int>(i)));
                        for (std::size_t j = 0; j < cols; ++j)
                            value.at(i, j) = value.at(src, j);
                    }
                    for (std::size_t j = 1; j < cols; ++j) {
                        const auto src = static_cast<std::size_t>(
                            rng.uniformInt(0, static_cast<int>(j)));
                        for (std::size_t i = 0; i < rows; ++i)
                            value.at(i, j) = value.at(i, src);
                    }
                }
                const double exhaustive = assignmentValue(
                    value, solveAssignmentExhaustive(value));
                EXPECT_EQ(assignmentValue(value,
                                          solveAssignmentMax(value)),
                          exhaustive)
                    << "Hungarian, " << rows << "x" << cols
                    << " variant " << variant;
                EXPECT_EQ(assignmentValue(value,
                                          solveAssignmentLp(value)),
                          exhaustive)
                    << "LP, " << rows << "x" << cols << " variant "
                    << variant;
            }
        }
    }
}

} // namespace
} // namespace poco::math
