#include "math/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "runtime/parallel.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace poco::math
{

namespace
{

constexpr double kEps = 1e-9;

/**
 * Pivot elimination fans out over rows only from this many tableau
 * cells up; the rest of the solver is serial. On the streaming
 * benchmark (4-core host) a 32x32 assignment tableau (~71k cells) ran
 * faster serial and a 64x64 one (~545k cells) faster pooled, so the
 * cutoff sits between them; a 48x48 tableau (~233k cells) is above
 * it, which bench_ext_scaling cross-checks against the serial path.
 */
constexpr std::size_t kParallelPivotCells = std::size_t{1} << 17;

/** Minimum cells per pooled elimination task (whole rows). */
constexpr std::size_t kPivotChunkCells = std::size_t{1} << 16;

/** Phase-2 price of an artificial column: a degenerate basic
 *  artificial (redundant constraint) must never rise above zero. */
constexpr double kArtificialPenalty = -1e15;

/**
 * The canonical tableau of the assignment LP for @p value: x_ij in
 * column i * cols + j, one slack per task row (column n + j) and one
 * artificial per agent row (column n + cols + i), n = rows * cols.
 * Agent rows come first, each basic on its artificial; task rows
 * follow, each basic on its slack. Every right-hand side is 1.
 */
SimplexTableau
canonicalize(MatrixView value)
{
    requireAssignmentShape(value);
    const std::size_t rows = value.rows;
    const std::size_t cols = value.cols;
    const std::size_t n = rows * cols;

    SimplexTableau t(rows + cols, n + cols + rows);
    for (std::size_t i = 0; i < rows; ++i) {
        double* agent = t.row(i);
        std::fill_n(agent + i * cols, cols, 1.0);
        agent[n + cols + i] = 1.0;
        t.rhs(i) = 1.0;
        t.basis()[i] = n + cols + i;
    }
    for (std::size_t j = 0; j < cols; ++j) {
        double* task = t.row(rows + j);
        for (std::size_t i = 0; i < rows; ++i)
            task[i * cols + j] = 1.0;
        task[n + j] = 1.0;
        t.rhs(rows + j) = 1.0;
        t.basis()[rows + j] = n + j;
    }
    return t;
}

/**
 * The phase-2 cost row over the canonical columns: value(i, j) on
 * x_ij, zero on the slacks, and a large negative penalty on the
 * artificials so a degenerate basic artificial never re-enters at a
 * positive level.
 */
std::vector<double>
phase2Cost(MatrixView value)
{
    const std::size_t n = value.rows * value.cols;
    std::vector<double> cost(n + value.cols + value.rows, 0.0);
    for (std::size_t i = 0; i < value.rows; ++i) {
        const double* src = value.row(i);
        std::copy(src, src + value.cols, cost.begin() + i * value.cols);
    }
    std::fill(cost.begin() + n + value.cols, cost.end(),
              kArtificialPenalty);
    return cost;
}

/**
 * Two-phase simplex over a freshly canonicalized tableau: phase 1
 * drives the artificials to zero, then phase 2 maximizes @p value.
 * The assignment polytope is non-empty and bounded, so a phase that
 * ends infeasible or unbounded is a solver fault.
 */
void
runTwoPhase(SimplexTableau& t, MatrixView value,
            const LpOptions& options)
{
    const std::size_t m = t.constraintRows();
    const std::size_t ncols = t.cols();
    const std::size_t art_begin = ncols - value.rows;

    // Phase 1: maximize -(sum of artificials); feasible iff optimum 0.
    std::vector<double> phase1(ncols, 0.0);
    std::fill(phase1.begin() + art_begin, phase1.end(), -1.0);
    t.setObjective(phase1);
    // The phase-1 objective is bounded above by zero.
    const bool phase1_bounded = t.iterate(options);
    POCO_ASSERT(phase1_bounded, "phase-1 simplex reported unbounded");
    POCO_ASSERT(t.objective() >= -1e-7,
                "assignment LP must be feasible");
    // Drive any artificial still basic (at zero level) out of the
    // basis so phase 2 never re-enters it.
    for (std::size_t r = 0; r < m; ++r) {
        if (t.basis()[r] >= art_begin) {
            std::size_t enter = ncols;
            for (std::size_t j = 0; j < art_begin; ++j) {
                if (std::abs(t.at(r, j)) > kEps) {
                    enter = j;
                    break;
                }
            }
            if (enter != ncols)
                t.pivot(r, enter, options);
            // else: the row is all-zero over real variables. The
            // assignment rows are independent (each task row has its
            // own slack), so this should not happen; if rounding
            // made it, the artificial stays basic at 0, harmless
            // because phase 2 gives it a huge negative cost.
        }
    }

    // Phase 2: the real objective.
    t.setObjective(phase2Cost(value));
    const bool bounded = t.iterate(options);
    POCO_ASSERT(bounded, "assignment LP must be bounded");
}

/**
 * Per-row argmax of the current basic solution's x_ij, or nullopt
 * when any row's best cell is fractional (a degenerate-tie vertex
 * that is not a permutation matrix).
 */
std::optional<std::vector<int>>
tryExtractAssignment(const SimplexTableau& t, std::size_t rows,
                     std::size_t cols)
{
    std::vector<double> x(rows * cols, 0.0);
    for (std::size_t r = 0; r < t.constraintRows(); ++r)
        if (t.basis()[r] < x.size())
            x[t.basis()[r]] = t.rhs(r);

    std::vector<int> assignment(rows, -1);
    for (std::size_t i = 0; i < rows; ++i) {
        double best = -1.0;
        for (std::size_t j = 0; j < cols; ++j) {
            const double xij = x[i * cols + j];
            if (xij > best) {
                best = xij;
                assignment[i] = static_cast<int>(j);
            }
        }
        if (best <= 0.5)
            return std::nullopt;
    }
    return assignment;
}

} // namespace

SimplexTableau::SimplexTableau(std::size_t m, std::size_t ncols)
    : m_(m), ncols_(ncols), stride_(ncols + 1),
      data_((m + 1) * (ncols + 1), 0.0), basis_(m, 0)
{
    POCO_REQUIRE(m > 0 && ncols > 0,
                 "tableau needs rows and columns");
}

void
SimplexTableau::setObjective(const std::vector<double>& cost)
{
    POCO_REQUIRE(cost.size() == ncols_,
                 "objective arity must match tableau columns");
    // Price out: d_j = c_j - sum_r c_basis[r] * a[r][j], accumulated
    // row by row so the inner loop is a straight vectorizable axpy.
    // Every column sums its rows in the fixed r order.
    double* __restrict__ obj = row(m_);
    std::fill(obj, obj + ncols_, 0.0);
    for (std::size_t r = 0; r < m_; ++r) {
        const double cb = cost[basis_[r]];
        const double* __restrict__ arow = row(r);
        for (std::size_t j = 0; j < ncols_; ++j)
            obj[j] += cb * arow[j];
    }
    for (std::size_t j = 0; j < ncols_; ++j)
        obj[j] = cost[j] - obj[j];
    double z0 = 0.0;
    for (std::size_t r = 0; r < m_; ++r)
        z0 += cost[basis_[r]] * rhs(r);
    rhs(m_) = -z0;
}

std::size_t
SimplexTableau::priceDantzig() const
{
    const double* __restrict__ obj = row(m_);
    std::size_t enter = npos;
    double best = kEps;
    for (std::size_t j = 0; j < ncols_; ++j) {
        if (obj[j] > best) {
            best = obj[j];
            enter = j;
        }
    }
    return enter;
}

std::size_t
SimplexTableau::priceBland() const
{
    const double* __restrict__ obj = row(m_);
    for (std::size_t j = 0; j < ncols_; ++j)
        if (obj[j] > kEps)
            return j;
    return npos;
}

std::size_t
SimplexTableau::ratioTest(std::size_t enter) const
{
    // Exact lexicographic (ratio, basic-variable index) minimum.
    std::size_t leave = npos;
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best_var = npos;
    for (std::size_t r = 0; r < m_; ++r) {
        const double a = at(r, enter);
        if (a <= kEps)
            continue;
        const double ratio = rhs(r) / a;
        if (ratio < best_ratio ||
            (ratio == best_ratio && basis_[r] < best_var)) {
            leave = r;
            best_ratio = ratio;
            best_var = basis_[r];
        }
    }
    return leave;
}

namespace
{

/**
 * y[c] -= a * x[c] over [0, n), 4-wide unrolled so the compiler can
 * keep SIMD lanes full without a runtime dependence check (the
 * pointers are declared non-aliasing). Each element runs the exact
 * scalar operation, so the result is bit-identical to the plain loop.
 */
inline void
axpySub(double* __restrict__ y, const double* __restrict__ x,
        double a, std::size_t n)
{
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4) {
        y[c] -= a * x[c];
        y[c + 1] -= a * x[c + 1];
        y[c + 2] -= a * x[c + 2];
        y[c + 3] -= a * x[c + 3];
    }
    for (; c < n; ++c)
        y[c] -= a * x[c];
}

} // namespace

void
SimplexTableau::pivot(std::size_t prow, std::size_t pcol,
                      const LpOptions& options)
{
    double* __restrict__ src = row(prow);
    const double p = src[pcol];
    POCO_ASSERT(std::abs(p) > kEps, "pivot on a ~zero element");
    const double inv = 1.0 / p;
    {
        std::size_t c = 0;
        for (; c + 4 <= stride_; c += 4) {
            src[c] *= inv;
            src[c + 1] *= inv;
            src[c + 2] *= inv;
            src[c + 3] *= inv;
        }
        for (; c < stride_; ++c)
            src[c] *= inv;
    }
    src[pcol] = 1.0;

    // Eliminate the pivot column from every other row, including the
    // reduced-cost row at index m_. Rows are independent, so the
    // elimination fans out once the tableau is big enough to pay for
    // the dispatch; the arithmetic per row is identical either way.
    runtime::ThreadPool* pool =
        (m_ + 1) * stride_ >= kParallelPivotCells ? options.pool
                                                  : nullptr;
    const std::size_t grain =
        std::max<std::size_t>(1, kPivotChunkCells / stride_);
    const double* __restrict__ piv = src;
    runtime::parallelFor(
        pool, m_ + 1,
        [this, prow, pcol, piv](std::size_t r) {
            if (r == prow)
                return;
            double* __restrict__ dst = row(r);
            const double factor = dst[pcol];
            if (std::abs(factor) < kEps) {
                dst[pcol] = 0.0;
                return;
            }
            axpySub(dst, piv, factor, stride_);
            dst[pcol] = 0.0;
        },
        grain);
    basis_[prow] = pcol;
}

bool
SimplexTableau::iterate(const LpOptions& options)
{
    // Dantzig pricing can cycle on degenerate vertices; after this
    // many consecutive zero-progress pivots, switch to Bland's rule
    // (the ratio test already uses Bland's leaving tie-break), which
    // terminates unconditionally.
    const std::size_t degenerate_limit = 64 + 8 * (m_ + ncols_);
    std::size_t degenerate = 0;
    bool bland = false;
    for (;;) {
        const std::size_t enter =
            bland ? priceBland() : priceDantzig();
        if (enter == npos)
            return true; // optimal
        const std::size_t leave = ratioTest(enter);
        if (leave == npos)
            return false; // unbounded direction
        if (rhs(leave) <= kEps) {
            if (!bland && ++degenerate > degenerate_limit)
                bland = true;
        } else {
            degenerate = 0;
        }
        pivot(leave, enter, options);
    }
}

std::vector<int>
solveAssignmentLp(MatrixView value, const LpOptions& options)
{
    return AssignmentLpSolver(options).solveCold(value);
}

std::vector<int>
AssignmentLpSolver::solveCold(MatrixView value)
{
    SimplexTableau t = canonicalize(value);
    runTwoPhase(t, value, options_);

    auto assignment = tryExtractAssignment(t, value.rows, value.cols);
    POCO_ASSERT(assignment.has_value(),
                "assignment LP produced a fractional solution");

    tableau_ = std::move(t);
    rows_ = value.rows;
    cols_ = value.cols;
    has_basis_ = true;
    exported_basis_ = tableau_.basis();
    return *assignment;
}

std::optional<std::vector<int>>
AssignmentLpSolver::solveWarm(MatrixView value)
{
    const std::size_t rows = value.rows;
    POCO_REQUIRE(rows > 0, "assignment needs at least one agent");
    const std::size_t cols = value.cols;
    POCO_REQUIRE(cols > 0, "assignment matrix must have columns");

    if (!hasBasis(rows, cols)) {
        invalidate();
        return std::nullopt;
    }

    // The constraint rows (and therefore B^-1 b >= 0) are untouched:
    // the retained basis stays primal feasible for any objective of
    // the same shape. Re-price and walk to the new optimum.
    tableau_.setObjective(phase2Cost(value));

    if (!tableau_.iterate(options_)) {
        // The assignment polytope is bounded; an unbounded report
        // means the retained tableau is corrupt. Drop it.
        invalidate();
        return std::nullopt;
    }

    auto assignment = tryExtractAssignment(tableau_, rows, cols);
    if (!assignment.has_value()) {
        invalidate();
        return std::nullopt;
    }
    exported_basis_ = tableau_.basis();
    return assignment;
}

std::uint64_t
AssignmentLpSolver::basisFingerprint() const
{
    if (!has_basis_)
        return 0;
    std::uint64_t h = fnv::kOffset;
    for (const std::size_t var : exported_basis_)
        fnv::mixWord(h, var);
    return h;
}

} // namespace poco::math
