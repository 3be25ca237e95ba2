/**
 * @file
 * Determinism and thread-safety tests for the parallel solver layer:
 * the flat-tableau simplex (row-parallel pivot elimination past its
 * size cutoff), the placement SolverContext path, batch admission
 * (which takes no pool, so only repeat-stability is checked), and
 * the assignment solve memo. Labeled tier-tsan: a
 * POCO_SANITIZE=thread build runs these suites to catch data races.
 *
 * The contract under test is the determinism contract: every output
 * field must be bit-identical with no pool and with 1 or 4 workers.
 * The 48x48 assignment LP (a 97 x 2401 tableau, 232,897 cells) and
 * the 64x64-shaped pivot are past the 131,072-cell elimination
 * cutoff (kParallelPivotCells), so their pooled runs really fan out:
 * the LP's eliminations split into 4 tasks of at most 27 rows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>

#include "cluster/placement.hpp"
#include "flat_matrix.hpp"
#include "math/hungarian.hpp"
#include "math/simplex.hpp"
#include "math/solver_cache.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace poco::math
{
namespace
{

poco::test::FlatMatrix
randomValueMatrix(std::size_t rows, std::size_t cols,
                  std::uint64_t seed)
{
    poco::Rng rng(seed);
    poco::test::FlatMatrix value(rows, cols);
    for (double& v : value.cells)
        v = rng.uniform(0.0, 100.0);
    return value;
}

TEST(SimplexParallel, AssignmentLpFieldExactForAnyThreadCount)
{
    // 48x48: a 97 x 2401 tableau (232,897 cells), past the 131,072-
    // cell elimination cutoff, so the pooled solves eliminate each
    // pivot in 4 tasks of at most 27 rows (2^16 cells / 2401 per
    // row). It is 48 rather than 64 to keep the ThreadSanitizer job
    // short; bench_ext_scaling cross-checks 48x48 at runtime too.
    constexpr std::size_t n = 48;
    const auto value = randomValueMatrix(n, n, 164);
    AssignmentLpSolver serial;
    const std::vector<int> expected = serial.solveCold(value);
    for (unsigned threads : {1u, 4u}) {
        runtime::ThreadPool pool(threads);
        AssignmentLpSolver pooled({&pool});
        EXPECT_EQ(pooled.solveCold(value), expected)
            << threads << " threads";
        EXPECT_EQ(pooled.basis(), serial.basis())
            << threads << " threads";
    }
}

TEST(SimplexParallel, TableauKernelsMatchSerialScan)
{
    // Pricing keeps the first of tied maxima; the ratio test's exact
    // (ratio, basic variable) minimum breaks its tie toward the lower
    // basic-variable index.
    SimplexTableau small(3, 8);
    for (std::size_t c = 0; c < 8; ++c)
        small.at(3, c) = (c % 5 == 2) ? 3.5 : -1.0;
    EXPECT_EQ(small.priceDantzig(), 2u);
    for (std::size_t r = 0; r < 3; ++r) {
        small.at(r, 2) = 2.0;
        small.rhs(r) = 4.0;
        small.basis()[r] = 7 - r;
    }
    EXPECT_EQ(small.ratioTest(2), 2u);

    // A pivot on a 64x64-assignment-shaped tableau (past the cutoff)
    // must leave every cell bit-identical with and without a pool.
    const std::size_t m = 128;
    const std::size_t ncols = 64 * 64 + 128;
    SimplexTableau pristine(m, ncols);
    poco::Rng rng(42);
    for (std::size_t r = 0; r <= m; ++r) {
        for (std::size_t c = 0; c < ncols; ++c)
            pristine.at(r, c) = rng.uniform(-1.0, 1.0);
        pristine.rhs(r) = rng.uniform(0.0, 4.0);
    }
    pristine.at(5, 17) = 1.5;
    SimplexTableau serial = pristine;
    serial.pivot(5, 17);
    for (unsigned threads : {1u, 4u}) {
        runtime::ThreadPool pool(threads);
        SimplexTableau pooled = pristine;
        pooled.pivot(5, 17, {&pool});
        std::size_t mismatches = 0;
        for (std::size_t r = 0; r <= m; ++r)
            for (std::size_t c = 0; c < pooled.stride(); ++c)
                if (pooled.row(r)[c] != serial.row(r)[c])
                    ++mismatches;
        EXPECT_EQ(mismatches, 0u) << threads << " threads";
    }
}

} // namespace
} // namespace poco::math

namespace poco::cluster
{
namespace
{

PerformanceMatrix
randomMatrix(std::size_t n_be, std::size_t n_srv, std::uint64_t seed)
{
    poco::Rng rng(seed);
    PerformanceMatrix matrix;
    matrix.resize(n_be, n_srv);
    for (std::size_t i = 0; i < n_be; ++i) {
        matrix.beNames.push_back("be-" + std::to_string(i));
        for (std::size_t j = 0; j < n_srv; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);
    }
    for (std::size_t j = 0; j < n_srv; ++j)
        matrix.lcNames.push_back("lc-" + std::to_string(j));
    return matrix;
}

SolverContext
pooledContext(runtime::ThreadPool* pool)
{
    SolverContext config;
    config.pool = pool;
    return config;
}

TEST(PlacementParallel, ExactKindsFieldExactForAnyThreadCount)
{
    const PerformanceMatrix matrix = randomMatrix(6, 6, 11);
    for (PlacementKind kind :
         {PlacementKind::Lp, PlacementKind::Hungarian,
          PlacementKind::Exhaustive}) {
        const auto serial = place(matrix, kind);
        for (unsigned threads : {1u, 2u, 8u}) {
            runtime::ThreadPool pool(threads);
            EXPECT_EQ(serial, place(matrix, kind,
                                    pooledContext(&pool)))
                << placementKindName(kind) << " threads=" << threads;
        }
    }
}

TEST(PlacementParallel, DeterministicOverloadRejectsRandom)
{
    const PerformanceMatrix matrix = randomMatrix(3, 3, 12);
    EXPECT_THROW(place(matrix, PlacementKind::Random),
                 poco::FatalError);
}

TEST(PlacementParallel, AdmitAndPlaceFieldExactForAnyThreadCount)
{
    // Admission takes no pool, so thread count cannot reach it; what
    // is left to pin is the admitted count and that a repeated call
    // gives the same answer field for field.
    const PerformanceMatrix matrix = randomMatrix(10, 4, 13);
    const auto first = admitAndPlace(matrix);
    int admitted = 0;
    for (int s : first)
        if (s >= 0)
            ++admitted;
    EXPECT_EQ(admitted, 4);
    for (int repeat = 0; repeat < 3; ++repeat)
        EXPECT_EQ(first, admitAndPlace(matrix));
}

TEST(PlacementParallel, CacheReturnsMemoizedSolution)
{
    const PerformanceMatrix matrix = randomMatrix(5, 5, 14);
    math::AssignmentCache cache;
    EXPECT_FALSE(cache.lookup(matrix.view()).has_value());
    const auto solved = place(matrix, PlacementKind::Lp);
    cache.insert(matrix.view(), solved);
    EXPECT_EQ(cache.lookup(matrix.view()), std::optional(solved));
    // A lookup leaves the entry in place.
    EXPECT_EQ(cache.lookup(matrix.view()), std::optional(solved));
}

TEST(PlacementParallel, CacheKeysOnKindAndContent)
{
    // The key is the content alone: every exact kind reaches the same
    // optimum, and a second insert for the same matrix keeps the
    // first entry, even when it stores another assignment.
    PerformanceMatrix matrix = randomMatrix(4, 4, 15);
    math::AssignmentCache cache;
    const auto lp = place(matrix, PlacementKind::Lp);
    const auto hungarian = place(matrix, PlacementKind::Hungarian);
    EXPECT_EQ(placementValue(matrix, lp),
              placementValue(matrix, hungarian));
    std::vector<int> rotated = lp;
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    ASSERT_NE(rotated, lp);
    cache.insert(matrix.view(), lp);
    cache.insert(matrix.view(), hungarian);
    cache.insert(matrix.view(), rotated);
    EXPECT_EQ(cache.lookup(matrix.view()), std::optional(lp));
    // A one-ulp perturbation is a different key: no stale hit, and
    // its own entry leaves the original's in place.
    const PerformanceMatrix original = matrix;
    matrix(0, 0) = std::nextafter(matrix(0, 0), 1e300);
    EXPECT_FALSE(cache.lookup(matrix.view()).has_value());
    cache.insert(matrix.view(), rotated);
    EXPECT_EQ(cache.lookup(matrix.view()), std::optional(rotated));
    EXPECT_EQ(cache.lookup(original.view()), std::optional(lp));
}

TEST(PlacementParallel, CacheIsThreadSafeUnderContention)
{
    // Many tasks race to look up and store the same four matrices in
    // one shared memo; every hit must return the serial oracle's
    // assignment. Run under POCO_SANITIZE=thread (tier-tsan) to
    // certify no races.
    constexpr std::size_t kMatrices = 4;
    std::vector<PerformanceMatrix> matrices;
    std::vector<std::vector<int>> expected;
    for (std::size_t k = 0; k < kMatrices; ++k) {
        matrices.push_back(randomMatrix(6, 6, 20 + k));
        expected.push_back(
            place(matrices.back(), PlacementKind::Hungarian));
    }
    math::AssignmentCache cache;
    runtime::ThreadPool pool(8);
    std::atomic<int> mismatches{0};
    runtime::parallelFor(&pool, 64, [&](std::size_t i) {
        const std::size_t k = i % kMatrices;
        std::optional<std::vector<int>> got =
            cache.lookup(matrices[k].view());
        if (!got.has_value()) {
            got = place(matrices[k], PlacementKind::Hungarian);
            cache.insert(matrices[k].view(), *got);
        }
        if (*got != expected[k])
            mismatches.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(mismatches.load(), 0);
    // After the race every matrix looks up its serial answer.
    for (std::size_t k = 0; k < kMatrices; ++k)
        EXPECT_EQ(cache.lookup(matrices[k].view()),
                  std::optional(expected[k]))
            << "matrix " << k;
}

} // namespace
} // namespace poco::cluster
