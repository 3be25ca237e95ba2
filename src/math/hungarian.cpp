#include "math/hungarian.hpp"

#include <algorithm>
#include <limits>

#include "math/hungarian_repair.hpp"
#include "util/check.hpp"

namespace poco::math
{

std::vector<int>
solveAssignmentMax(MatrixView value)
{
    return HungarianRepair{}.solveFull(value);
}

double
assignmentValue(MatrixView value, const std::vector<int>& assignment)
{
    POCO_REQUIRE(assignment.size() == value.rows,
                 "assignment arity mismatch");
    double total = 0.0;
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        const int j = assignment[i];
        POCO_REQUIRE(j >= 0 &&
                     static_cast<std::size_t>(j) < value.cols,
                     "assignment index out of range");
        total += value(i, static_cast<std::size_t>(j));
    }
    return total;
}

std::vector<int>
solveAssignmentExhaustive(MatrixView value)
{
    requireAssignmentShape(value);
    const std::size_t rows = value.rows;
    const std::size_t cols = value.cols;
    POCO_REQUIRE(cols <= 10, "exhaustive search limited to <= 10 tasks");

    std::vector<int> perm(cols);
    for (std::size_t j = 0; j < cols; ++j)
        perm[j] = static_cast<int>(j);

    std::vector<int> best;
    double best_value = -std::numeric_limits<double>::infinity();
    do {
        std::vector<int> candidate(perm.begin(),
                                   perm.begin() +
                                       static_cast<std::ptrdiff_t>(rows));
        const double v = assignmentValue(value, candidate);
        if (v > best_value) {
            best_value = v;
            best = candidate;
        }
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
}

} // namespace poco::math
