/**
 * @file
 * Two-phase dense simplex solver for the assignment LP.
 *
 * The cluster manager formulates placement as an assignment LP
 * (Section IV-B cites standard LP/Hungarian methods). The assignment
 * polytope is integral, so the LP optimum is a permutation matrix; we
 * verify this against the Hungarian solver in tests.
 *
 * That LP is the only one any program here poses, so the solver lays
 * out its canonical tableau directly: maximize sum value(i, j) x_ij
 * subject to sum_j x_ij = 1 per agent, sum_i x_ij <= 1 per task and
 * x >= 0. Every right-hand side is 1, so the layout needs no sign
 * flips and no surplus columns.
 *
 * Performance design (the placement hot path once the cluster-scaling
 * benches sweep past the paper's 4x4):
 *  - The tableau lives in one contiguous row-major buffer (rhs folded
 *    in as the last column), so a pivot streams through cache lines
 *    instead of chasing a row-pointer per constraint.
 *  - A maintained reduced-cost row makes pricing O(ncols) per
 *    iteration instead of O(m * ncols).
 *  - Pricing, the ratio test and setObjective are serial scans. Only
 *    the pivot row-elimination fans out over an LpOptions pool, and
 *    only on tableaus large enough to pay for the dispatch (a fixed
 *    cell-count cutoff in simplex.cpp). Each row's arithmetic is the
 *    same either way, so every output field is bit-identical for any
 *    thread count, including the serial path. The pooled elimination
 *    stays because it pays on the streaming benchmark's 64x64
 *    re-solves: a serial-only build lost ~24% of fleet-stream
 *    throughput.
 *
 * What else stays, and why: the public SimplexTableau kernels are
 * driven directly by the tests (including the Beale cycling instance,
 * which needs no assignment structure) and bench_micro;
 * AssignmentLpSolver's warm path is a rung of the streaming ladder
 * whose choice among tied optima the streaming fingerprints record
 * (cluster/incremental.hpp).
 *
 * Pivot rule: Dantzig pricing (most positive reduced cost, ties to
 * the lowest column index) with an exact lexicographic
 * (ratio, basic-variable index) ratio test. After a long run of
 * consecutive degenerate pivots the solver falls back to Bland's rule
 * (lowest-index entering column; the ratio tie-break is already
 * Bland's), which guarantees termination on cycling instances.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "math/matrix_view.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::math
{

/**
 * Where the solver may run. Results never depend on it, only
 * wall-clock does; tableaus under the elimination cutoff (every
 * assignment up to 32x32) stay serial even with a pool.
 */
struct LpOptions
{
    /** Pool for the pivot elimination; null runs serially. */
    runtime::ThreadPool* pool = nullptr;
};

/**
 * Dense simplex tableau backed by one contiguous row-major buffer.
 *
 * Layout: (m + 1) rows of stride (ncols + 1) doubles. Rows [0, m) are
 * the constraint rows, row m is the maintained reduced-cost row, and
 * the last column of every row is its right-hand side (the objective
 * row's rhs cell holds -z). basis()[r] names the basic variable of
 * constraint row r.
 *
 * Exposed (rather than buried in AssignmentLpSolver) so the
 * micro-benchmarks and the tests can drive the pivot/pricing kernels
 * on any tableau, not only an assignment one.
 */
class SimplexTableau
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    SimplexTableau() = default;

    /** Zero-filled tableau with @p m constraint rows, @p ncols vars. */
    SimplexTableau(std::size_t m, std::size_t ncols);

    std::size_t constraintRows() const { return m_; }
    std::size_t cols() const { return ncols_; }
    /** Doubles per row (ncols + 1; the rhs is the last column). */
    std::size_t stride() const { return stride_; }

    double* row(std::size_t r) { return data_.data() + r * stride_; }
    const double*
    row(std::size_t r) const
    {
        return data_.data() + r * stride_;
    }

    double& at(std::size_t r, std::size_t c) { return row(r)[c]; }
    double at(std::size_t r, std::size_t c) const { return row(r)[c]; }

    double& rhs(std::size_t r) { return row(r)[ncols_]; }
    double rhs(std::size_t r) const { return row(r)[ncols_]; }

    /** Reduced cost of column j under the current basis. */
    double reducedCost(std::size_t j) const { return row(m_)[j]; }

    /** Objective value of the current basic solution. */
    double objective() const { return -rhs(m_); }

    std::vector<std::size_t>& basis() { return basis_; }
    const std::vector<std::size_t>& basis() const { return basis_; }

    /**
     * Install objective @p cost (one entry per column) by pricing it
     * out over the current basis: the reduced-cost row becomes
     * c - c_B B^-1 A and the objective rhs cell -c_B B^-1 b.
     */
    void setObjective(const std::vector<double>& cost);

    /**
     * Dantzig pricing: the column with the most positive reduced cost
     * (ties to the lowest index), or npos when none exceeds the
     * optimality tolerance.
     */
    std::size_t priceDantzig() const;

    /** Bland pricing: lowest-index column with positive reduced cost. */
    std::size_t priceBland() const;

    /**
     * Leaving row for entering column @p enter: the exact minimum of
     * rhs/coefficient over rows with a positive coefficient, ties
     * broken toward the lowest basic-variable index (Bland's leaving
     * rule). @return npos when the column is an unbounded direction.
     */
    std::size_t ratioTest(std::size_t enter) const;

    /**
     * Pivot at (@p prow, @p pcol): normalize the pivot row, eliminate
     * the column from every other row (including the reduced-cost
     * row). Rows are eliminated over options.pool once the tableau
     * passes the size cutoff; every row's arithmetic is independent,
     * so the result is identical either way.
     */
    void pivot(std::size_t prow, std::size_t pcol,
               const LpOptions& options = {});

    /**
     * Run simplex iterations until optimal or unbounded. Dantzig
     * pricing with a Bland's-rule fallback after a long run of
     * degenerate pivots (anti-cycling).
     *
     * @return true when an optimum was reached, false when unbounded.
     */
    bool iterate(const LpOptions& options = {});

  private:
    std::size_t m_ = 0;      // constraint rows
    std::size_t ncols_ = 0;  // variables (excluding the rhs column)
    std::size_t stride_ = 0; // ncols_ + 1
    std::vector<double> data_;
    std::vector<std::size_t> basis_;
};

/**
 * Solve a maximum-total-value assignment problem as an LP.
 *
 * Lays out the standard doubly-stochastic formulation: variable x_ij
 * (column i * cols + j) is the fraction of "agent" i assigned to
 * "task" j. Agent row i, sum_j x_ij = 1, is basic on its artificial
 * (column n + cols + i, with n = rows * cols); task row rows + j,
 * sum_i x_ij <= 1, follows and is basic on its slack (column n + j).
 * Integrality of the assignment polytope makes the optimum a 0/1
 * matrix. This is AssignmentLpSolver(options).solveCold(value): the
 * repo has one cold assignment-LP path.
 *
 * @param value value(i, j) is the benefit of assigning agent i to
 *              task j. Requires rows <= cols.
 * @param options Pool for large pivots; defaults run serially.
 * @return assignment[i] = chosen task j for each agent i.
 */
std::vector<int> solveAssignmentLp(MatrixView value,
                                   const LpOptions& options = {});

/**
 * Warm-startable assignment-LP solver (the control plane's hot path).
 *
 * The doubly-stochastic assignment polytope has a fixed constraint
 * structure for a given (rows, cols) shape: only the objective row
 * depends on the value matrix. The flat tableau after an optimal
 * solve therefore remains a valid feasible basis for *any* objective
 * of the same shape — a perturbed matrix needs only a re-priced
 * reduced-cost row and however few pivots separate the old vertex
 * from the new optimum, not a cold two-phase solve.
 *
 * solveCold() is the one cold path (solveAssignmentLp() calls it)
 * and retains the final tableau; solveWarm() re-prices and iterates
 * from the retained basis. Warm solves are field-exact equals of cold
 * solves whenever the optimum is unique; the degenerate-tie case is
 * caught by the integrality check and reported as a miss so the
 * caller can fall back to a cold solve.
 */
class AssignmentLpSolver
{
  public:
    explicit AssignmentLpSolver(LpOptions options = {})
        : options_(options)
    {}

    /**
     * Two-phase solve from scratch; retains the optimal basis for
     * subsequent warm solves.
     */
    std::vector<int> solveCold(MatrixView value);

    /**
     * Re-solve after the value matrix changed but the shape did not:
     * re-price the new objective over the retained basis and iterate.
     * @return The assignment, or nullopt (with the basis invalidated)
     *         when no compatible basis is held or the warm pivot path
     *         ends on a fractional vertex — the caller must fall back
     *         to solveCold().
     */
    std::optional<std::vector<int>> solveWarm(MatrixView value);

    /** True when a basis for a (rows, cols) instance is retained. */
    bool hasBasis(std::size_t rows, std::size_t cols) const
    {
        return has_basis_ && rows == rows_ && cols == cols_;
    }

    /**
     * The retained basis: basic-variable index per constraint row.
     * Exported so tests can compare solver states across runs
     * (FingerprintPins.SimplexBasis and AssignmentLpBases pin it
     * after cold and warm solves);
     * ctrl::CtrlCheckpoint does not carry it. Empty before the
     * first solve; meaningful only while a basis is held.
     */
    const std::vector<std::size_t>& basis() const
    {
        return exported_basis_;
    }

    /** FNV-1a over the retained basis (0 when none is held). */
    std::uint64_t basisFingerprint() const;

  private:
    /** Drop the retained basis (next solve must be cold). */
    void invalidate() { has_basis_ = false; }

    LpOptions options_;
    SimplexTableau tableau_;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    bool has_basis_ = false;
    std::vector<std::size_t> exported_basis_;
};

} // namespace poco::math
