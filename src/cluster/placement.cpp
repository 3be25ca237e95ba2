#include "cluster/placement.hpp"

#include "math/hungarian.hpp"
#include "math/matrix_view.hpp"
#include "math/simplex.hpp"
#include "util/check.hpp"

namespace poco::cluster
{

namespace
{

/** Repeated argmax; lowest (row, col) wins ties. */
std::vector<int>
solveGreedy(const PerformanceMatrix& matrix)
{
    const std::size_t rows = matrix.rows();
    const std::size_t cols = matrix.cols();
    std::vector<int> assignment(rows, -1);
    std::vector<bool> col_used(cols, false);
    for (std::size_t step = 0; step < rows; ++step) {
        std::size_t best_i = 0, best_j = 0;
        double best = 0.0;
        bool found = false;
        for (std::size_t i = 0; i < rows; ++i) {
            if (assignment[i] >= 0)
                continue;
            const double* row = matrix.row(i);
            for (std::size_t j = 0; j < cols; ++j) {
                if (col_used[j])
                    continue;
                if (!found || row[j] > best) {
                    best = row[j];
                    best_i = i;
                    best_j = j;
                    found = true;
                }
            }
        }
        POCO_ASSERT(found, "greedy ran out of columns");
        assignment[best_i] = static_cast<int>(best_j);
        col_used[best_j] = true;
    }
    return assignment;
}

/** Run the named exact solver. */
std::vector<int>
solveExact(const PerformanceMatrix& matrix, PlacementKind kind,
           const SolverContext& context)
{
    switch (kind) {
      case PlacementKind::Lp:
        return math::solveAssignmentLp(matrix.view(), {context.pool});
      case PlacementKind::Hungarian:
        return math::solveAssignmentMax(matrix.view());
      case PlacementKind::Exhaustive:
        return math::solveAssignmentExhaustive(matrix.view());
      case PlacementKind::Greedy:
        return solveGreedy(matrix);
      case PlacementKind::Random:
        break;
    }
    poco::panic("unreachable exact placement kind");
}

} // namespace

const char*
placementKindName(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::Random:     return "random";
      case PlacementKind::Lp:         return "lp";
      case PlacementKind::Hungarian:  return "hungarian";
      case PlacementKind::Exhaustive: return "exhaustive";
      case PlacementKind::Greedy:     return "greedy";
    }
    return "?";
}

std::vector<int>
place(const PerformanceMatrix& matrix, PlacementKind kind, Rng& rng,
      const SolverContext& context)
{
    if (kind == PlacementKind::Random) {
        math::requireAssignmentShape(matrix.view());
        const std::size_t rows = matrix.rows();
        const std::vector<int> perm =
            rng.permutation(static_cast<int>(matrix.cols()));
        return std::vector<int>(perm.begin(),
                                perm.begin() +
                                    static_cast<std::ptrdiff_t>(rows));
    }
    return place(matrix, kind, context);
}

std::vector<int>
place(const PerformanceMatrix& matrix, PlacementKind kind,
      const SolverContext& context)
{
    POCO_REQUIRE(kind != PlacementKind::Random,
                 "random placement needs an Rng");
    math::requireAssignmentShape(matrix.view());
    return solveExact(matrix, kind, context);
}

double
placementValue(const PerformanceMatrix& matrix,
               const std::vector<int>& assignment)
{
    return math::assignmentValue(matrix.view(), assignment);
}

std::vector<int>
admitAndPlace(const PerformanceMatrix& matrix)
{
    const std::size_t n_be = matrix.rows();
    POCO_REQUIRE(n_be > 0, "empty performance matrix");
    const std::size_t n_srv = matrix.cols();

    if (n_be <= n_srv) {
        // Everyone fits: ordinary (deterministic) assignment.
        return place(matrix, PlacementKind::Hungarian);
    }

    // Transpose: servers are the agents, candidates the tasks.
    std::vector<double> transposed(n_srv * n_be);
    for (std::size_t j = 0; j < n_srv; ++j)
        for (std::size_t i = 0; i < n_be; ++i)
            transposed[j * n_be + i] = matrix(i, j);
    const std::vector<int> choice = math::solveAssignmentMax(
        math::MatrixView{transposed.data(), n_srv, n_be});

    std::vector<int> admitted(n_be, -1);
    for (std::size_t j = 0; j < n_srv; ++j) {
        const int be = choice[j];
        POCO_ASSERT(be >= 0 && static_cast<std::size_t>(be) < n_be,
                    "transposed assignment out of range");
        admitted[static_cast<std::size_t>(be)] = static_cast<int>(j);
    }
    return admitted;
}

SolverTier
placementTier(PlacementKind kind)
{
    switch (kind) {
      case PlacementKind::Lp:         return SolverTier::Lp;
      case PlacementKind::Hungarian:  return SolverTier::Hungarian;
      // Exhaustive is an exact test oracle, as trustworthy as the
      // Hungarian rung; Random is the experiment baseline, a
      // heuristic like Greedy.
      case PlacementKind::Exhaustive: return SolverTier::Hungarian;
      case PlacementKind::Greedy:     return SolverTier::Greedy;
      case PlacementKind::Random:     return SolverTier::Greedy;
    }
    return SolverTier::None;
}

Outcome<std::vector<int>>
placeWithFallback(const PerformanceMatrix& matrix,
                  const SolverContext& context,
                  const FallbackOptions& options)
{
    math::requireAssignmentShape(matrix.view());
    POCO_REQUIRE(options.maxAttemptsPerStage >= 1,
                 "fallback needs at least one attempt per stage");

    Outcome<std::vector<int>> outcome;
    static constexpr PlacementKind kChain[] = {
        PlacementKind::Lp,
        PlacementKind::Hungarian,
        PlacementKind::Greedy,
    };
    for (const PlacementKind kind : kChain) {
        for (int attempt = 0;
             attempt < options.maxAttemptsPerStage; ++attempt) {
            ++outcome.attempts;
            try {
                if (options.failInjection &&
                    options.failInjection(kind, attempt))
                    poco::fatal(
                        std::string("injected solver failure: ") +
                        placementKindName(kind));
                outcome.value = kind == PlacementKind::Greedy
                                    ? solveGreedy(matrix)
                                    : place(matrix, kind, context);
                outcome.tier = placementTier(kind);
                return outcome;
            } catch (const FatalError&) {
                // Fall through to the next attempt or solver.
            }
        }
    }
    // Terminal fallback: the preference-free identity map. Always
    // feasible (#BE <= #servers) and requires no solver at all.
    const std::size_t rows = matrix.rows();
    outcome.value.resize(rows);
    for (std::size_t i = 0; i < rows; ++i)
        outcome.value[i] = static_cast<int>(i);
    outcome.tier = SolverTier::Conservative;
    outcome.degradation.conservative = true;
    return outcome;
}

} // namespace poco::cluster
