/**
 * @file
 * Tests for the two-phase simplex LP solver.
 */

#include <gtest/gtest.h>

#include "math/hungarian.hpp"
#include "flat_matrix.hpp"
#include "math/simplex.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace poco::math
{
namespace
{

TEST(Simplex, TextbookMaximization)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> z = 36 at
    // (2, 6). (Dantzig's classic example.)
    LpProblem lp;
    lp.objective = {3.0, 5.0};
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 4.0);
    lp.addConstraint({0.0, 2.0}, Relation::LessEqual, 12.0);
    lp.addConstraint({3.0, 2.0}, Relation::LessEqual, 18.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 36.0, 1e-7);
    EXPECT_NEAR(sol.x[0], 2.0, 1e-7);
    EXPECT_NEAR(sol.x[1], 6.0, 1e-7);
}

TEST(Simplex, EqualityConstraints)
{
    // max x + y s.t. x + y = 5, x <= 3 -> 5 with x in [0,3].
    LpProblem lp;
    lp.objective = {1.0, 1.0};
    lp.addConstraint({1.0, 1.0}, Relation::Equal, 5.0);
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 3.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 5.0, 1e-7);
    EXPECT_NEAR(sol.x[0] + sol.x[1], 5.0, 1e-7);
    EXPECT_LE(sol.x[0], 3.0 + 1e-9);
}

TEST(Simplex, GreaterEqualConstraints)
{
    // max -x - y (i.e. min x + y) s.t. x + 2y >= 4, 3x + y >= 6.
    // Optimum x = 1.6, y = 1.2, objective -2.8.
    LpProblem lp;
    lp.objective = {-1.0, -1.0};
    lp.addConstraint({1.0, 2.0}, Relation::GreaterEqual, 4.0);
    lp.addConstraint({3.0, 1.0}, Relation::GreaterEqual, 6.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, -2.8, 1e-7);
    EXPECT_NEAR(sol.x[0], 1.6, 1e-7);
    EXPECT_NEAR(sol.x[1], 1.2, 1e-7);
}

TEST(Simplex, NegativeRhsNormalized)
{
    // x - y <= -2 with max x + 0y, x,y >= 0; feasible (x=0, y>=2);
    // max x s.t. x <= y - 2, y unbounded? y has no cost; objective x
    // only; x can grow with y -> unbounded.
    LpProblem lp;
    lp.objective = {1.0, 0.0};
    lp.addConstraint({1.0, -1.0}, Relation::LessEqual, -2.0);
    const LpSolution sol = solveLp(lp);
    EXPECT_EQ(sol.status, LpStatus::Unbounded);
}

TEST(Simplex, InfeasibleDetected)
{
    LpProblem lp;
    lp.objective = {1.0};
    lp.addConstraint({1.0}, Relation::LessEqual, 1.0);
    lp.addConstraint({1.0}, Relation::GreaterEqual, 2.0);
    EXPECT_EQ(solveLp(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected)
{
    LpProblem lp;
    lp.objective = {1.0};
    lp.addConstraint({-1.0}, Relation::LessEqual, 1.0);
    EXPECT_EQ(solveLp(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, DegenerateProblemTerminates)
{
    // Redundant constraints create degeneracy; Bland's rule must
    // still terminate at the optimum.
    LpProblem lp;
    lp.objective = {1.0, 1.0};
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 2.0);
    lp.addConstraint({1.0, 0.0}, Relation::LessEqual, 2.0);
    lp.addConstraint({2.0, 0.0}, Relation::LessEqual, 4.0);
    lp.addConstraint({0.0, 1.0}, Relation::LessEqual, 3.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 5.0, 1e-7);
}

TEST(Simplex, BealeCyclingInstanceTerminates)
{
    // Beale (1955): the classic instance on which Dantzig pricing
    // with naive tie-breaks cycles forever. The degenerate-pivot
    // fallback to Bland's rule must terminate at z = 0.05.
    LpProblem lp;
    lp.objective = {0.75, -150.0, 0.02, -6.0};
    lp.addConstraint({0.25, -60.0, -1.0 / 25.0, 9.0},
                     Relation::LessEqual, 0.0);
    lp.addConstraint({0.5, -90.0, -1.0 / 50.0, 3.0},
                     Relation::LessEqual, 0.0);
    lp.addConstraint({0.0, 0.0, 1.0, 0.0}, Relation::LessEqual, 1.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 0.05, 1e-7);
    EXPECT_NEAR(sol.x[2], 1.0, 1e-7);
}

TEST(Simplex, HighlyDegenerateTiesResolved)
{
    // Every constraint is active at the origin-adjacent optimum; the
    // ratio test sees nothing but zero-ratio ties and must still
    // make progress via its lowest-basic-variable tie-break.
    LpProblem lp;
    lp.objective = {1.0, 1.0, 1.0};
    lp.addConstraint({1.0, -1.0, 0.0}, Relation::LessEqual, 0.0);
    lp.addConstraint({1.0, 0.0, -1.0}, Relation::LessEqual, 0.0);
    lp.addConstraint({0.0, 1.0, -1.0}, Relation::LessEqual, 0.0);
    lp.addConstraint({1.0, 1.0, 1.0}, Relation::LessEqual, 9.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 9.0, 1e-7);
    EXPECT_NEAR(sol.x[2], 3.0, 1e-7);
}

TEST(Simplex, ContradictoryEqualitiesInfeasible)
{
    LpProblem lp;
    lp.objective = {1.0, 1.0};
    lp.addConstraint({1.0, 1.0}, Relation::Equal, 2.0);
    lp.addConstraint({1.0, 1.0}, Relation::Equal, 3.0);
    EXPECT_EQ(solveLp(lp).status, LpStatus::Infeasible);
}

TEST(Simplex, GreaterEqualOnlyUnbounded)
{
    // Feasible region extends to infinity along the objective after
    // phase 1 finds a vertex: max x s.t. x >= 1.
    LpProblem lp;
    lp.objective = {1.0};
    lp.addConstraint({1.0}, Relation::GreaterEqual, 1.0);
    EXPECT_EQ(solveLp(lp).status, LpStatus::Unbounded);
}

TEST(Simplex, BoundedAfterPhaseOne)
{
    // min x1 + x2 (as max of the negation) with covering rows: phase
    // 1 must find a vertex, phase 2 a bounded optimum at (1, 1).
    LpProblem lp;
    lp.objective = {-1.0, -1.0};
    lp.addConstraint({1.0, 0.0}, Relation::GreaterEqual, 1.0);
    lp.addConstraint({0.0, 1.0}, Relation::GreaterEqual, 1.0);
    lp.addConstraint({1.0, 1.0}, Relation::LessEqual, 10.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, -2.0, 1e-7);
    EXPECT_NEAR(sol.x[0], 1.0, 1e-7);
    EXPECT_NEAR(sol.x[1], 1.0, 1e-7);
}

TEST(Simplex, ZeroObjectiveIsOptimalAnywhereFeasible)
{
    LpProblem lp;
    lp.objective = {0.0, 0.0};
    lp.addConstraint({1.0, 1.0}, Relation::LessEqual, 4.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 0.0, 1e-12);
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

TEST(Simplex, RedundantEqualityHandled)
{
    // Duplicate equality rows leave an artificial basic at zero.
    LpProblem lp;
    lp.objective = {1.0, 2.0};
    lp.addConstraint({1.0, 1.0}, Relation::Equal, 3.0);
    lp.addConstraint({1.0, 1.0}, Relation::Equal, 3.0);
    const LpSolution sol = solveLp(lp);
    ASSERT_EQ(sol.status, LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 6.0, 1e-7); // all weight on y
}

TEST(Simplex, InputValidation)
{
    LpProblem empty;
    EXPECT_THROW(solveLp(empty), poco::FatalError);
    LpProblem ragged;
    ragged.objective = {1.0, 1.0};
    ragged.addConstraint({1.0}, Relation::LessEqual, 1.0);
    EXPECT_THROW(solveLp(ragged), poco::FatalError);
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
