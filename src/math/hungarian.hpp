/**
 * @file
 * Hungarian (Kuhn-Munkres) algorithm for the assignment problem.
 *
 * O(n^3) potentials-based implementation. The cluster manager uses it
 * as an exact, fast alternative to the assignment LP (the paper cites
 * Munkres [30] among the standard methods); tests cross-check both
 * against exhaustive search.
 *
 * The repo has one Kuhn-Munkres kernel: the augmenting stage in
 * math::HungarianRepair (hungarian_repair.hpp). solveAssignmentMax
 * is a cold HungarianRepair::solveFull, so the batch placer and the
 * streaming ladder's Hungarian rung return the same bits.
 *
 * Every entry point takes a math::MatrixView over flat row-major
 * storage (the cluster layer's PerformanceMatrix buffer). Callers
 * that assemble rows incrementally pack them flat and view the
 * buffer.
 */

#pragma once

#include <vector>

#include "math/matrix_view.hpp"

namespace poco::math
{

/**
 * Maximum-value assignment.
 *
 * @param value value(i, j) is the benefit of assigning agent i to
 *              task j. Requires rows <= cols.
 * @return assignment[i] = task chosen for agent i (distinct tasks).
 */
std::vector<int> solveAssignmentMax(MatrixView value);

/** Total value of an assignment under a value matrix. */
double assignmentValue(MatrixView value,
                       const std::vector<int>& assignment);

/**
 * Exhaustive assignment search (reference oracle, O(cols!/(cols-rows)!)).
 * Only suitable for tiny instances such as the paper's 4x4 study.
 */
std::vector<int> solveAssignmentExhaustive(MatrixView value);

} // namespace poco::math
