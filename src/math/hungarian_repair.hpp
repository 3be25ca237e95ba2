/**
 * @file
 * Stateful Kuhn-Munkres engine with single-column repair.
 *
 * This file holds the repo's one Kuhn-Munkres augmenting stage:
 * math::solveAssignmentMax (hungarian.hpp) is a cold solveFull().
 *
 * The streaming control plane mostly sees one-subject perturbations:
 * a LoadShift re-prices one server's column. A full O(n^3) re-solve
 * throws away n-1 still-valid augmenting stages; this engine instead
 * retains the dual potentials and matching from the previous
 * optimum, patches the changed column back to dual feasibility, and
 * runs a single O(n*m) augmenting stage. No event kind re-prices a
 * single BE row, so there is no row repair.
 *
 * Safety over cleverness: every repair ends with an O(n*m) check of
 * the LP optimality conditions (dual feasibility, complementary
 * slackness on matched edges, column-price signs). When the check
 * fails — degenerate ties, a column the stage could not re-match —
 * the state is invalidated and the caller falls back to a cold solve,
 * so a repaired answer is never worse than a cold one. Row *deletion*
 * is deliberately not offered: removing a matched row can leave the
 * remaining matching non-extreme (cost [[0,1],[0,10]]: deleting row 2
 * strands row 1 on its column-2 edge), so shape changes always take
 * the cold path.
 *
 * All public values are max-form (benefit matrices, matching the
 * placement layer); costs are negated internally to the min-form the
 * potentials method wants.
 */

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "math/matrix_view.hpp"

namespace poco::math
{

class HungarianRepair
{
  public:
    /**
     * Cold solve: maximum-value assignment of @p value (rectangular,
     * rows <= cols), retaining potentials and matching for repairs.
     * solveAssignmentMax is exactly this call on a fresh engine.
     */
    std::vector<int> solveFull(MatrixView value);

    /** True when state for a (rows, cols) instance is retained. */
    bool
    hasState(std::size_t rows, std::size_t cols) const
    {
        return valid_ && rows == rows_ && cols == cols_;
    }

    /**
     * Re-optimize after column @p col changed to @p colValues (size
     * rows). One augmenting stage plus an optimality check.
     * @return The new optimal assignment, or nullopt (state
     *         invalidated) when the check fails — fall back cold.
     */
    std::optional<std::vector<int>>
    repairColumn(std::size_t col,
                 const std::vector<double>& colValues);

  private:
    /** One shortest-augmenting-path stage for 1-based row @p row1. */
    void augment(int row1);
    /** LP optimality conditions for the current matching. */
    bool verify() const;
    /** Matching as assignment[row] = col (0-based, max-form). */
    std::vector<int> extract() const;

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    bool valid_ = false;
    /** Min-form costs (negated benefits), flat row-major, 0-based. */
    std::vector<double> cost_;
    double costAt(std::size_t i, std::size_t j) const
    {
        return cost_[i * cols_ + j];
    }
    /** Dual potentials, 1-based with sentinel slot 0. */
    std::vector<double> u_;
    std::vector<double> v_;
    /** p_[j] = 1-based row matched to 1-based column j; 0 = free. */
    std::vector<int> p_;
};

} // namespace poco::math
