/**
 * @file
 * Warm-start equivalence: every incremental solve rung must return
 * exactly what a cold solve would. AssignmentLpSolver::solveCold is
 * the one cold LP path (solveAssignmentLp is a fresh solver's
 * solveCold); a reused solver's cold solve leaves the same assignment
 * and basis as a fresh one's across shape changes, and solveWarm
 * matches cold field-exactly under randomized perturbation storms.
 * HungarianRepair matches solveAssignmentMax after single-column
 * repairs; the IncrementalPlacer ladder matches placeWithFallback
 * event by event (on value when ties make several assignments
 * optimal), and its memo answers exact repeats only. Runs under
 * tier-ctrl.
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
    // One solver is reused across growing and shrinking shapes; each
    // cold solve must leave exactly the assignment and basis a fresh
    // solver (what solveAssignmentLp builds) leaves on the same
    // matrix, so nothing of the previous tableau leaks into it, and
    // must hold a basis for the new shape only.
    Rng rng(101);
    const std::size_t shapes[][2] = {{2, 2}, {3, 4}, {6, 6},
                                     {3, 3}, {7, 8}, {4, 5}};
    math::AssignmentLpSolver solver;
    std::size_t prev_rows = 0;
    std::size_t prev_cols = 0;
    for (const auto& shape : shapes) {
        const std::size_t rows = shape[0];
        const std::size_t cols = shape[1];
        const auto value = randomMatrix(rng, rows, cols);
        math::AssignmentLpSolver fresh;
        const auto expected = fresh.solveCold(value);
        EXPECT_EQ(expected, math::solveAssignmentLp(value));
        EXPECT_EQ(solver.solveCold(value), expected)
            << rows << "x" << cols;
        EXPECT_NE(solver.basisFingerprint(), 0u);
        EXPECT_EQ(solver.basis(), fresh.basis()) << rows << "x" << cols;
        EXPECT_EQ(solver.basisFingerprint(), fresh.basisFingerprint());
        EXPECT_TRUE(solver.hasBasis(rows, cols));
        if (prev_rows != 0) {
            EXPECT_FALSE(solver.hasBasis(prev_rows, prev_cols))
                << "basis kept for the old shape";
        }
        prev_rows = rows;
        prev_cols = cols;
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
          case 1: { // one row re-priced: the product names no
                    // row delta, so it sends a full refresh
            const auto row = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<int>(rows) - 1));
            for (std::size_t j = 0; j < cols; ++j)
                matrix(row, j) = rng.uniform(0.0, 100.0);
            check(cluster::PlacementDelta::fullRefresh(), round);
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

TEST(CtrlWarmstart, IncrementalPlacerKeepsObjectiveOnTiedMatrix)
{
    // A 12x16 matrix of small integers whose rows come in identical
    // pairs, driven through the two deltas the control plane sends
    // for a fixed shape: a column re-priced (fresh values, or a copy
    // of another column, which ties the two servers) and a full
    // refresh (an exact rescale, as a budget change rescales every
    // cell). Ties make several assignments optimal, and the ladder
    // may pick another than the batch chain, but never another
    // value. Integer cells keep every sum exact.
    Rng rng(909);
    const std::size_t rows = 12;
    const std::size_t cols = 16;
    double scale = 1.0;

    cluster::PerformanceMatrix matrix;
    matrix.resize(rows, cols);
    auto drawColumn = [&](std::size_t col) {
        for (std::size_t i = 0; i < rows; i += 2) {
            matrix(i, col) = scale * rng.uniformInt(0, 3);
            matrix(i + 1, col) = matrix(i, col);
        }
    };
    for (std::size_t j = 0; j < cols; ++j)
        drawColumn(j);

    cluster::IncrementalPlacer placer;
    auto check = [&](const cluster::PlacementDelta& delta,
                     int round) {
        const auto incremental = placer.resolve(matrix, delta);
        const auto cold = cluster::placeWithFallback(matrix);
        EXPECT_EQ(cluster::placementValue(matrix, incremental.value),
                  cluster::placementValue(matrix, cold.value))
            << "round " << round << " delta "
            << cluster::placementDeltaKindName(delta.kind) << " tier "
            << solverTierName(incremental.tier);
        std::vector<char> used(cols, 0);
        for (const int j : incremental.value) {
            ASSERT_EQ(used[static_cast<std::size_t>(j)], 0)
                << "column used twice, round " << round;
            used[static_cast<std::size_t>(j)] = 1;
        }
    };

    check(cluster::PlacementDelta::shape(), -1);
    for (int round = 0; round < 60; ++round) {
        const auto col = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(cols) - 1));
        switch (rng.uniformInt(0, 2)) {
          case 0:
            drawColumn(col);
            check(cluster::PlacementDelta::column(col), round);
            break;
          case 1: {
            const auto src = static_cast<std::size_t>(
                rng.uniformInt(0, static_cast<int>(cols) - 1));
            for (std::size_t i = 0; i < rows; ++i)
                matrix(i, col) = matrix(i, src);
            check(cluster::PlacementDelta::column(col), round);
            break;
          }
          default: {
            // Scale up by 2 or 3, or back down to 1 once past 64.
            // Every cell is a multiple of `scale`, so both are exact.
            const double up = rng.uniformInt(2, 3);
            const bool down = scale > 64.0;
            for (std::size_t i = 0; i < rows; ++i)
                for (std::size_t j = 0; j < cols; ++j)
                    matrix(i, j) = down ? matrix(i, j) / scale
                                        : matrix(i, j) * up;
            scale = down ? 1.0 : scale * up;
            check(cluster::PlacementDelta::fullRefresh(), round);
            break;
          }
        }
    }
}

TEST(CtrlWarmstart, IncrementalPlacerMemoAnswersExactRepeatsOnly)
{
    // Rung 0: a repeated matrix comes back from the placer's memo
    // (tier Cached, no solver attempt), a one-ulp change to a single
    // cell is a different key, and going back to the first matrix
    // after that miss (A -> B -> A) answers from the memo again.
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
        placer.resolve(nudged, cluster::PlacementDelta::column(0));
    EXPECT_NE(miss.tier, SolverTier::Cached);
    EXPECT_EQ(placer.stats().cached, 1u);

    const auto revisit =
        placer.resolve(matrix, cluster::PlacementDelta::column(0));
    EXPECT_EQ(revisit.tier, SolverTier::Cached);
    EXPECT_EQ(revisit.attempts, 0);
    EXPECT_EQ(revisit.value, first.value);
    EXPECT_EQ(placer.stats().cached, 2u);
}

} // namespace
} // namespace poco
