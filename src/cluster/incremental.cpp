#include "cluster/incremental.hpp"

#include "math/matrix_view.hpp"
#include "util/check.hpp"

namespace poco::cluster
{

const char*
placementDeltaKindName(PlacementDelta::Kind kind)
{
    switch (kind) {
      case PlacementDelta::Kind::FullRefresh: return "full-refresh";
      case PlacementDelta::Kind::Column:      return "column";
      case PlacementDelta::Kind::Shape:       return "shape";
    }
    return "?";
}

Outcome<std::vector<int>>
IncrementalPlacer::resolve(const PerformanceMatrix& matrix,
                           const PlacementDelta& delta)
{
    math::requireAssignmentShape(matrix.view());
    const std::size_t rows = matrix.rows();
    const std::size_t cols = matrix.cols();

    const bool column = delta.kind == PlacementDelta::Kind::Column;
    if (column)
        POCO_REQUIRE(delta.index < cols, "delta column out of range");

    // Rung 0 — memo. Flapping event pairs (crash/recover, A<->B load
    // oscillation) revisit byte-identical matrices; the exact-match
    // cache answers without touching a solver. The hit leaves both
    // engines pointing at some *other* matrix, so mark them stale.
    if (auto hit = memo_.lookup(matrix.view())) {
        ++stats_.cached;
        repair_fresh_ = false;
        warm_fresh_ = false;
        return {*std::move(hit), SolverTier::Cached, /*tries=*/0};
    }

    // Rung 1 — single-column Hungarian repair: one augmenting stage
    // from the retained duals, self-verified against the optimality
    // conditions.
    if (column && repair_fresh_ && repair_.hasState(rows, cols)) {
        std::vector<double> values(rows);
        for (std::size_t i = 0; i < rows; ++i)
            values[i] = matrix(i, delta.index);
        std::optional<std::vector<int>> fixed =
            repair_.repairColumn(delta.index, values);
        if (fixed.has_value()) {
            ++stats_.repaired;
            warm_fresh_ = false;
            memo_.insert(matrix.view(), *fixed);
            return {*std::move(fixed), SolverTier::Repair};
        }
        repair_fresh_ = false; // engine invalidated itself
    }

    // Rung 2 — warm-started simplex: any same-shape perturbation can
    // re-price the retained optimal basis and walk the few pivots to
    // the new vertex.
    if (delta.kind != PlacementDelta::Kind::Shape && warm_fresh_ &&
        warm_.hasBasis(rows, cols)) {
        if (auto sol = warm_.solveWarm(matrix.view())) {
            ++stats_.warm;
            repair_fresh_ = false;
            memo_.insert(matrix.view(), *sol);
            return {*std::move(sol), SolverTier::WarmLp};
        }
        warm_fresh_ = false;
    }

    // Rung 3 — column event with no fresh engine: re-arm the repair
    // engine with a full Hungarian solve so the next column event
    // takes the cheap stage.
    if (column) {
        std::vector<int> full = repair_.solveFull(matrix.view());
        ++stats_.resynced;
        repair_fresh_ = true;
        warm_fresh_ = false;
        memo_.insert(matrix.view(), full);
        return {std::move(full), SolverTier::Hungarian};
    }

    // Rung 4 — cold two-phase solve, which re-arms the warm basis.
    // It cannot fail: the shape check above is its only FatalError,
    // and its solver faults are POCO_ASSERT panics.
    std::vector<int> sol = warm_.solveCold(matrix.view());
    ++stats_.cold;
    warm_fresh_ = true;
    repair_fresh_ = false;
    memo_.insert(matrix.view(), sol);
    return {std::move(sol), SolverTier::Lp};
}

Outcome<std::vector<int>>
IncrementalPlacer::shed(const PerformanceMatrix& matrix)
{
    math::requireAssignmentShape(matrix.view());
    ++stats_.shed;
    // The engines saw neither this matrix nor this answer; anything
    // they retain describes a state the stream has moved past.
    repair_fresh_ = false;
    warm_fresh_ = false;
    std::vector<int> identity(matrix.rows());
    for (std::size_t i = 0; i < identity.size(); ++i)
        identity[i] = static_cast<int>(i);
    Degradation flags;
    flags.conservative = true;
    return {std::move(identity), SolverTier::Conservative,
            /*tries=*/0, flags};
}

} // namespace poco::cluster
