/**
 * @file
 * Warm-start equivalence: every incremental solve rung must return
 * exactly what a cold solve would. AssignmentLpSolver::solveCold is
 * bit-identical to solveAssignmentLp and solveWarm matches cold
 * field-exactly under randomized perturbation storms; HungarianRepair
 * matches solveAssignmentMax after single-row/column repairs; the
 * IncrementalPlacer ladder matches placeWithFallback event by event,
 * and its memo answers exact repeats only. Runs under tier-ctrl.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <vector>

#include "cluster/incremental.hpp"
#include "cluster/placement.hpp"
#include "flat_matrix.hpp"
#include "math/hungarian.hpp"
#include "math/simplex.hpp"
#include "util/rng.hpp"

namespace poco
{
namespace
{

using poco::test::FlatMatrix;

FlatMatrix
randomMatrix(Rng& rng, std::size_t rows, std::size_t cols)
{
    FlatMatrix value(rows, cols);
    for (double& cell : value.cells)
        cell = rng.uniform(0.0, 100.0);
    return value;
}

double
objectiveOf(const FlatMatrix& value,
            const std::vector<int>& assignment)
{
    double total = 0.0;
    for (std::size_t i = 0; i < assignment.size(); ++i)
        if (assignment[i] >= 0)
            total +=
                value.at(i, static_cast<std::size_t>(assignment[i]));
    return total;
}

TEST(CtrlWarmstart, ColdSolveMatchesSolveAssignmentLpBitwise)
{
    Rng rng(101);
    math::AssignmentLpSolver solver;
    for (int round = 0; round < 6; ++round) {
        const std::size_t n = 2 + static_cast<std::size_t>(round);
        const auto value = randomMatrix(rng, n, n + round % 2);
        EXPECT_EQ(solver.solveCold(value),
                  math::solveAssignmentLp(value))
            << "round " << round;
        EXPECT_TRUE(solver.hasBasis(n, n + round % 2));
    }
}

TEST(CtrlWarmstart, WarmSolveMatchesColdUnderPerturbationStorm)
{
    // Storm: random single-cell, single-row, single-column, and
    // full-matrix perturbations of one instance. After each, the
    // warm path (retained basis + re-price) must reproduce the cold
    // answer field-exactly, on assignment and objective both.
    Rng rng(202);
    const std::size_t n = 8;
    auto value = randomMatrix(rng, n, n);

    math::AssignmentLpSolver warm;
    warm.solveCold(value);

    int warm_hits = 0;
    for (int round = 0; round < 60; ++round) {
        switch (rng.uniformInt(0, 3)) {
          case 0: { // one cell
            const auto i = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(n) - 1));
            const auto j = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(n) - 1));
            value.at(i, j) = rng.uniform(0.0, 100.0);
            break;
          }
          case 1: { // one row
            const auto i = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(n) - 1));
            for (std::size_t j = 0; j < n; ++j)
                value.at(i, j) = rng.uniform(0.0, 100.0);
            break;
          }
          case 2: { // one column
            const auto col = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(n) - 1));
            for (std::size_t i = 0; i < n; ++i)
                value.at(i, col) = rng.uniform(0.0, 100.0);
            break;
          }
          default: { // everything
            for (double& cell : value.cells)
                cell = rng.uniform(0.0, 100.0);
            break;
          }
        }

        const std::vector<int> cold =
            math::solveAssignmentLp(value);
        const auto hot = warm.solveWarm(value);
        if (hot.has_value()) {
            ++warm_hits;
            EXPECT_EQ(*hot, cold) << "round " << round;
            EXPECT_DOUBLE_EQ(objectiveOf(value, *hot),
                             objectiveOf(value, cold));
        } else {
            // Contractual miss: the basis is dropped and a cold
            // re-arm must succeed.
            EXPECT_FALSE(warm.hasBasis(n, n));
            EXPECT_EQ(warm.solveCold(value), cold);
        }
    }
    // The storm is adjacent-state by construction; the warm path
    // must carry the overwhelming majority of it.
    EXPECT_GT(warm_hits, 40) << "warm basis barely ever applied";
}

TEST(CtrlWarmstart, WarmSolveRefusesShapeChange)
{
    Rng rng(303);
    math::AssignmentLpSolver solver;
    solver.solveCold(randomMatrix(rng, 4, 4));
    EXPECT_FALSE(solver.solveWarm(randomMatrix(rng, 4, 5))
                     .has_value());
    EXPECT_FALSE(solver.hasBasis(4, 4)) << "mismatch invalidates";
}

TEST(CtrlWarmstart, HungarianRepairMatchesOracleAfterRowChange)
{
    Rng rng(404);
    math::HungarianRepair engine;
    for (int instance = 0; instance < 5; ++instance) {
        const std::size_t n = 3 + static_cast<std::size_t>(instance);
        auto value = randomMatrix(rng, n, n + 1);
        EXPECT_EQ(engine.solveFull(value),
                  math::solveAssignmentMax(value));

        for (int round = 0; round < 20; ++round) {
            const auto row = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(n) - 1));
            for (std::size_t j = 0; j < value.cols; ++j)
                value.at(row, j) = rng.uniform(0.0, 100.0);
            const auto repaired = engine.repairRow(
                row, value.cells.data() + row * value.cols,
                value.cols);
            const std::vector<int> oracle =
                math::solveAssignmentMax(value);
            if (repaired.has_value()) {
                EXPECT_EQ(*repaired, oracle)
                    << "instance " << instance << " round " << round;
            } else {
                // Self-verification rejected the repair; re-arm.
                engine.solveFull(value);
            }
        }
    }
}

TEST(CtrlWarmstart, HungarianRepairMatchesOracleAfterColumnChange)
{
    Rng rng(505);
    math::HungarianRepair engine;
    const std::size_t n = 6;
    auto value = randomMatrix(rng, n, n);
    engine.solveFull(value);
    for (int round = 0; round < 40; ++round) {
        const auto col = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) - 1));
        std::vector<double> column(n);
        for (std::size_t i = 0; i < n; ++i) {
            value.at(i, col) = rng.uniform(0.0, 100.0);
            column[i] = value.at(i, col);
        }
        const auto repaired = engine.repairColumn(col, column);
        const std::vector<int> oracle =
            math::solveAssignmentMax(value);
        if (repaired.has_value()) {
            EXPECT_EQ(*repaired, oracle) << "round " << round;
        } else {
            engine.solveFull(value);
        }
    }
}

TEST(CtrlWarmstart, IncrementalPlacerMatchesColdChainEventByEvent)
{
    // The full ladder vs the batch path over a randomized storm of
    // single-event perturbations. Every resolve must equal the
    // placeWithFallback answer on assignment and objective, whatever
    // rung served it.
    Rng rng(606);
    const std::size_t rows = 6;
    const std::size_t cols = 8;

    cluster::PerformanceMatrix matrix;
    matrix.resize(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);

    cluster::IncrementalPlacer placer;
    cluster::IncrementalStats last;

    auto check = [&](const cluster::PlacementDelta& delta,
                     int round) {
        const auto incremental = placer.resolve(matrix, delta);
        const auto cold = cluster::placeWithFallback(matrix);
        EXPECT_EQ(incremental.value, cold.value)
            << "round " << round << " delta "
            << cluster::placementDeltaKindName(delta.kind);
        EXPECT_DOUBLE_EQ(
            cluster::placementValue(matrix, incremental.value),
            cluster::placementValue(matrix, cold.value));
    };

    check(cluster::PlacementDelta::shape(), -1);
    for (int round = 0; round < 50; ++round) {
        switch (rng.uniformInt(0, 2)) {
          case 0: { // LoadShift: one server column re-priced
            const auto col = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(cols) - 1));
            for (std::size_t i = 0; i < rows; ++i)
                matrix(i, col) = rng.uniform(0.0, 100.0);
            check(cluster::PlacementDelta::column(col), round);
            break;
          }
          case 1: { // BE profile refresh: one row re-priced
            const auto row = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(rows) - 1));
            for (std::size_t j = 0; j < cols; ++j)
                matrix(row, j) = rng.uniform(0.0, 100.0);
            check(cluster::PlacementDelta::row(row), round);
            break;
          }
          default: { // BudgetChange: same shape, everything scaled
            const double scale = rng.uniform(0.5, 1.5);
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    matrix(i, j) *= scale;
            check(cluster::PlacementDelta::fullRefresh(), round);
            break;
          }
        }
    }

    // The ladder must actually have been exercised, not just have
    // fallen cold every time.
    const cluster::IncrementalStats& stats = placer.stats();
    EXPECT_GT(stats.repaired + stats.warm + stats.cached, 25u)
        << "incremental rungs barely fired: repaired="
        << stats.repaired << " warm=" << stats.warm
        << " cached=" << stats.cached;
    (void)last;
}

TEST(CtrlWarmstart, IncrementalPlacerResetForcesColdPath)
{
    Rng rng(707);
    cluster::PerformanceMatrix matrix;
    matrix.resize(4, 4);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);
    cluster::IncrementalPlacer placer;
    const auto first =
        placer.resolve(matrix, cluster::PlacementDelta::shape());
    placer.reset();
    const auto second =
        placer.resolve(matrix, cluster::PlacementDelta::shape());
    EXPECT_EQ(first.value, second.value);
    EXPECT_GE(placer.stats().cold + placer.stats().cached, 2u);
}

TEST(CtrlWarmstart, IncrementalPlacerMemoAnswersExactRepeatsOnly)
{
    // Rung 0: a repeated matrix comes back from the placer's memo
    // (tier Cached, no solver attempt), a one-ulp change to a single
    // cell is a different key, and reset() drops the engines but
    // keeps the memo.
    Rng rng(808);
    cluster::PerformanceMatrix matrix;
    matrix.resize(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);
    cluster::IncrementalPlacer placer;

    const auto first =
        placer.resolve(matrix, cluster::PlacementDelta::shape());
    EXPECT_EQ(first.tier, SolverTier::Lp);
    const auto repeat =
        placer.resolve(matrix, cluster::PlacementDelta::fullRefresh());
    EXPECT_EQ(repeat.tier, SolverTier::Cached);
    EXPECT_EQ(repeat.attempts, 0);
    EXPECT_EQ(repeat.value, first.value);
    EXPECT_EQ(placer.stats().cached, 1u);

    cluster::PerformanceMatrix nudged = matrix;
    nudged(0, 0) = std::nextafter(matrix(0, 0), 1e300);
    const auto miss =
        placer.resolve(nudged, cluster::PlacementDelta::row(0));
    EXPECT_NE(miss.tier, SolverTier::Cached);
    EXPECT_EQ(placer.stats().cached, 1u);

    placer.reset();
    const auto after_reset =
        placer.resolve(matrix, cluster::PlacementDelta::shape());
    EXPECT_EQ(after_reset.tier, SolverTier::Cached);
    EXPECT_EQ(after_reset.attempts, 0);
    EXPECT_EQ(after_reset.value, first.value);
    EXPECT_EQ(placer.stats().cached, 2u);
}

} // namespace
} // namespace poco
