/**
 * @file
 * Tests for the Hungarian assignment solver and the exhaustive
 * reference oracle.
 */

#include <gtest/gtest.h>

#include <set>

#include "flat_matrix.hpp"
#include "math/hungarian.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace poco::math
{
namespace
{

using poco::test::FlatMatrix;
using poco::test::flat;

TEST(Hungarian, TrivialSingleton)
{
    EXPECT_EQ(solveAssignmentMax(flat({{-5.0}})),
              (std::vector<int>{0}));
    EXPECT_EQ(solveAssignmentMax(flat({{5.0}})),
              (std::vector<int>{0}));
}

TEST(Hungarian, KnownMinimum)
{
    // Classic 3x3: optimal cost 5 via (0->1, 1->0, 2->2) for this
    // matrix. Minimizing cost is maximizing its negation.
    const FlatMatrix cost = flat({{4.0, 1.0, 3.0},
                                  {2.0, 0.0, 5.0},
                                  {3.0, 2.0, 2.0}});
    FlatMatrix negated = cost;
    for (double& v : negated.cells)
        v = -v;
    const auto a = solveAssignmentMax(negated);
    double total = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        total += cost.at(i, static_cast<std::size_t>(a[i]));
    EXPECT_NEAR(total, 5.0, 1e-9);
}

TEST(Hungarian, MaxIsMinOfNegated)
{
    const FlatMatrix value = flat({{10.0, 2.0}, {4.0, 8.0}});
    EXPECT_EQ(solveAssignmentMax(value), (std::vector<int>{0, 1}));
}

TEST(Hungarian, AssignmentsAreDistinct)
{
    poco::Rng rng(3);
    FlatMatrix value(6, 6);
    for (double& v : value.cells)
        v = rng.uniform(0.0, 1.0);
    const auto a = solveAssignmentMax(value);
    const std::set<int> unique(a.begin(), a.end());
    EXPECT_EQ(unique.size(), a.size());
}

TEST(Hungarian, RectangularPicksBestColumns)
{
    // 2 agents, 4 tasks.
    const FlatMatrix value = flat({{1.0, 2.0, 9.0, 3.0},
                                   {9.0, 2.0, 8.0, 1.0}});
    const auto a = solveAssignmentMax(value);
    EXPECT_EQ(a, (std::vector<int>{2, 0}));
}

TEST(Hungarian, NegativeValuesHandled)
{
    const FlatMatrix value = flat({{-5.0, -1.0}, {-2.0, -8.0}});
    const auto a = solveAssignmentMax(value);
    // Best total: -1 + -2 = -3.
    EXPECT_EQ(a, (std::vector<int>{1, 0}));
}

TEST(Hungarian, TiesResolveToSomeOptimum)
{
    const FlatMatrix value = flat({{1.0, 1.0}, {1.0, 1.0}});
    const auto a = solveAssignmentMax(value);
    EXPECT_NEAR(assignmentValue(value, a), 2.0, 1e-12);
}

TEST(Hungarian, InputValidation)
{
    EXPECT_THROW(solveAssignmentMax(MatrixView{}), poco::FatalError);
    EXPECT_THROW(solveAssignmentMax(flat({{-1.0}, {-2.0}})),
                 poco::FatalError); // rows > cols
    // Ragged nested literals can no longer reach the solver: the
    // flat() packer rejects them before a view exists.
    EXPECT_THROW(flat({{1.0, 2.0}, {1.0}}), poco::FatalError);
}

TEST(AssignmentValue, Validation)
{
    const FlatMatrix value = flat({{1.0, 2.0}});
    EXPECT_THROW(assignmentValue(value, {0, 1}), poco::FatalError);
    EXPECT_THROW(assignmentValue(value, {5}), poco::FatalError);
    EXPECT_DOUBLE_EQ(assignmentValue(value, {1}), 2.0);
}

TEST(Exhaustive, GuardsAgainstExplosion)
{
    const FlatMatrix value(1, 11, 1.0);
    EXPECT_THROW(solveAssignmentExhaustive(value), poco::FatalError);
}

/** Property: Hungarian matches exhaustive on random rectangular
 *  instances (rows < cols). */
class HungarianRect
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(HungarianRect, MatchesExhaustive)
{
    const auto [rows, cols] = GetParam();
    for (int trial = 0; trial < 8; ++trial) {
        poco::Rng rng(
            static_cast<std::uint64_t>(rows * 1000 + cols * 10 +
                                       trial));
        FlatMatrix value(static_cast<std::size_t>(rows),
                         static_cast<std::size_t>(cols));
        for (double& v : value.cells)
            v = rng.uniform(-50.0, 50.0);
        const auto h = solveAssignmentMax(value);
        const auto e = solveAssignmentExhaustive(value);
        EXPECT_NEAR(assignmentValue(value, h),
                    assignmentValue(value, e), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HungarianRect,
    ::testing::Values(std::make_pair(2, 3), std::make_pair(3, 5),
                      std::make_pair(4, 4), std::make_pair(5, 7),
                      std::make_pair(6, 6), std::make_pair(1, 8)));

} // namespace
} // namespace poco::math
