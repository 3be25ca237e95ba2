/**
 * @file
 * Incremental placement for the streaming control plane.
 *
 * The batch path (place / placeWithFallback) solves every matrix from
 * scratch. Under an event stream most solves are tiny perturbations
 * of the previous one — a LoadShift re-prices one server's column, a
 * budget change rescales the whole matrix but keeps its shape.
 * IncrementalPlacer keeps the previous optimum alive in three
 * engines and picks the cheapest that applies:
 *
 *   Cached     exact memo hit (flapping A<->B states) — no solve
 *   Repair     one Hungarian augmenting stage from the retained duals
 *              (single-column delta)
 *   WarmLp     simplex re-priced over the retained optimal basis
 *   Hungarian  full re-arm of the repair engine (column delta, no
 *              fresh engine)
 *   Lp         cold two-phase solve (also re-arms the warm basis)
 *
 * The deltas are exactly the ones ctrl::ReplayEngine emits: Column
 * (a LoadShift on one live server), FullRefresh (same shape, anything
 * may have moved) and Shape (arrivals, departures, liveness changes,
 * backpressure re-syncs). No event kind re-prices a single BE row.
 *
 * Every rung is exact: Repair self-verifies the LP optimality
 * conditions and WarmLp the integrality of its vertex, and both fall
 * through on failure, so the ladder returns the same optimum a cold
 * solve would (field-exact whenever the optimum is unique). The cold
 * solve is the last rung: past resolve()'s shape check it cannot
 * fail, so the ladder needs no degradation chain below it. The tier
 * on the returned Outcome records which rung fired; tiers Cached /
 * Repair / WarmLp sit *above* Lp in the ladder because they are
 * cheaper, not worse.
 *
 * What stays, and why: when a matrix has several optima, the rung
 * order, the memo, the warm LP and the Hungarian re-arm each choose
 * among them by their own history, and the streaming benchmark's
 * fleet-stream fingerprint records those choices. Removing any of
 * them moves that hash; collapsing the ladder waits for a canonical
 * tie rule (ROADMAP).
 *
 * The memo (rung 0) is the placer's own math::AssignmentCache, and
 * this is its one owner in the code base. It is the one rung whose
 * answers can differ from a fresh solve: when a matrix has several
 * optima, a hit returns the assignment stored on the earlier visit,
 * which another rung may not pick again. Its rules: look up before
 * any engine; insert every solved answer (all of them exact; shed()'s
 * Conservative identity never enters); a hit marks both engines
 * stale; and ctrl::CtrlCheckpoint does not carry it, so a restored
 * master starts with an empty memo.
 *
 * The matrix side mirrors the delta: ctrl::ReplayEngine keeps its
 * cells resident and re-evaluates only those whose server load moved
 * (a Column delta costs one column of cell calls, a budget-only
 * FullRefresh none). That cache is sound only because the CellModel
 * is pure; the matrices handed to resolve() are bit-identical to
 * full rebuilds.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "cluster/placement.hpp"
#include "math/hungarian_repair.hpp"
#include "math/simplex.hpp"
#include "math/solver_cache.hpp"

namespace poco::cluster
{

/**
 * What changed between the previously resolved matrix and this one.
 * The caller (the control plane) knows which event produced the new
 * matrix, so it can name the perturbation instead of making the
 * solver diff matrices.
 */
struct PlacementDelta
{
    enum class Kind
    {
        /** Same shape, anything may have moved (e.g. BudgetChange). */
        FullRefresh,
        /** Exactly column `index` (one server) was re-priced. */
        Column,
        /** The matrix gained/lost rows or columns (arrive/crash). */
        Shape,
    };

    Kind kind = Kind::FullRefresh;
    std::size_t index = 0;

    static PlacementDelta fullRefresh() { return {}; }
    static PlacementDelta
    column(std::size_t j)
    {
        return {Kind::Column, j};
    }
    static PlacementDelta
    shape()
    {
        return {Kind::Shape, 0};
    }
};

const char* placementDeltaKindName(PlacementDelta::Kind kind);

/** Cumulative rung-hit counters (monotonic since construction). */
struct IncrementalStats
{
    std::uint64_t cached = 0;   ///< memo hits
    std::uint64_t repaired = 0; ///< Hungarian repair successes
    std::uint64_t warm = 0;     ///< warm-start LP successes
    std::uint64_t resynced = 0; ///< full Hungarian re-arms
    std::uint64_t cold = 0;     ///< cold LP solves
    std::uint64_t shed = 0;     ///< backpressure sheds (no solve)
};

/**
 * Stateful exact placement over a stream of adjacent matrices.
 * Not thread-safe, and neither copyable nor movable (the memo holds
 * a lock); the control plane owns one per cluster.
 */
class IncrementalPlacer
{
  public:
    explicit IncrementalPlacer(SolverContext context = {})
        : warm_(math::LpOptions{context.pool})
    {}

    /**
     * Place @p matrix given that @p delta describes how it differs
     * from the previous resolve() argument. The first call should
     * pass PlacementDelta::shape().
     *
     * @return The assignment with the exact rung that produced it
     *         (Cached, Repair, WarmLp, Hungarian or Lp); never empty.
     * @throws poco::FatalError when @p matrix has no rows or more
     *         rows than columns (math::requireAssignmentShape).
     */
    Outcome<std::vector<int>> resolve(const PerformanceMatrix& matrix,
                                      const PlacementDelta& delta);

    /**
     * Backpressure escape: skip the whole ladder and return the
     * Conservative identity assignment (BE row i on column i —
     * always feasible under the rows <= cols precondition) without
     * consulting or updating any engine. The matrix has still moved,
     * so the retained repair/warm state is marked stale; the next
     * resolve() should pass PlacementDelta::shape() to re-sync.
     * Deterministic and O(rows) — this is what "shedding to the
     * Conservative tier" costs instead of a solve.
     */
    Outcome<std::vector<int>> shed(const PerformanceMatrix& matrix);

    const IncrementalStats& stats() const { return stats_; }

  private:
    math::AssignmentCache memo_;
    math::HungarianRepair repair_;
    math::AssignmentLpSolver warm_;
    /** An engine is fresh iff its state matches the last resolved
     *  matrix (a cache hit or the other engine's success breaks the
     *  correspondence without invalidating the engine itself). */
    bool repair_fresh_ = false;
    bool warm_fresh_ = false;
    IncrementalStats stats_;
};

} // namespace poco::cluster
