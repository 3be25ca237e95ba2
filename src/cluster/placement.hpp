/**
 * @file
 * Cluster placement policies (Section IV-B).
 *
 * Given the performance matrix, a policy picks which best-effort
 * application runs beside which latency-critical server. Pocolo uses
 * an LP solver (the assignment polytope is integral); Hungarian and
 * exhaustive search are provided as equivalent exact alternatives and
 * as test oracles; random placement is the baseline.
 *
 * The exact policies (LP, Hungarian, exhaustive) are deterministic
 * pure functions of the matrix, so they take a SolverContext instead
 * of an Rng: a thread pool accelerates only the LP's pivot
 * elimination, on tableaus past its size cutoff (48x48 and up). With
 * or without a pool, every solve returns field-identical
 * assignments. These batch paths keep no solve memo: the cluster
 * matrices they see are 2x2 to 4x4 and cost about as much to hash as
 * to solve. The streaming IncrementalPlacer (incremental.hpp) owns
 * the one memo.
 *
 * The Hungarian policy is math::solveAssignmentMax and the LP policy
 * math::solveAssignmentLp: one Kuhn-Munkres kernel and one cold LP,
 * shared with the streaming ladder. placeWithFallback and its
 * FallbackOptions injection hook stay for the fault benches
 * (bench_ext_faults, bench_ext_robustness), which force solver
 * failures through them; the streaming placer takes no options.
 */

#pragma once

#include <functional>
#include <vector>

#include "cluster/performance_matrix.hpp"
#include "util/outcome.hpp"
#include "util/rng.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::cluster
{

/** Available placement algorithms. */
enum class PlacementKind
{
    Random,
    Lp,
    Hungarian,
    Exhaustive,
    /**
     * Repeated argmax with lowest-index tie-breaks: not optimal, but
     * O(n^3), allocation-light, and with no numerical pivoting to go
     * wrong — the last resort of the degradation fallback chain.
     */
    Greedy,
};

const char* placementKindName(PlacementKind kind);

/**
 * Execution context for the exact placement solvers: where to run.
 * The default runs serially; results never depend on the setting.
 * The evaluators assemble it from poco::FleetConfig
 * (cluster/fleet_config.hpp).
 */
struct SolverContext
{
    /** Pool for large LP pivots. */
    runtime::ThreadPool* pool = nullptr;
    /**
     * Ignored: read by nothing in src/. The LP's fan-out cutoff is a
     * fixed tableau size in simplex.cpp. Still declared only because
     * benchmark/src/streaming.cpp:708 assigns it.
     */
    std::size_t pivotCutoff = 4096;
    /**
     * Ignored, like pivotCutoff: pricing is a serial scan. Assigned
     * only by benchmark/src/streaming.cpp:709.
     */
    std::size_t pricingGrain = 2048;
};

/** The degradation tier a given solver kind reports as. */
SolverTier placementTier(PlacementKind kind);

/**
 * Compute an assignment: result[i] = LC server index for BE app i.
 *
 * @param matrix Performance matrix (rows: BE apps, cols: servers);
 *        requires #BE <= #servers.
 * @param rng Used only by PlacementKind::Random.
 * @param context Pool wiring for the exact solvers.
 */
std::vector<int> place(const PerformanceMatrix& matrix,
                       PlacementKind kind, Rng& rng,
                       const SolverContext& context = {});

/**
 * Deterministic-kind overload: LP, Hungarian, and exhaustive need no
 * randomness, so no Rng. Throws poco::FatalError for Random.
 */
std::vector<int> place(const PerformanceMatrix& matrix,
                       PlacementKind kind,
                       const SolverContext& context = {});

/** Total estimated throughput of an assignment under the matrix. */
double placementValue(const PerformanceMatrix& matrix,
                      const std::vector<int>& assignment);

/**
 * Admission control + placement when best-effort candidates
 * outnumber servers (the queue-drain case): pick which candidates
 * to admit and where, maximizing total estimated throughput.
 *
 * Solved exactly as the transposed assignment problem (each server
 * "chooses" a candidate; unchosen candidates wait) by the Hungarian
 * kernel, which takes no pool.
 *
 * @return admitted[i] = server index for BE i, or -1 when BE i is
 *         not admitted this round. Exactly min(#BE, #servers)
 *         entries are >= 0.
 */
std::vector<int> admitAndPlace(const PerformanceMatrix& matrix);

/** Retry/fallback knobs for placeWithFallback. */
struct FallbackOptions
{
    /** Attempts per chain stage before falling to the next solver. */
    int maxAttemptsPerStage = 2;
    /**
     * Test/bench hook: return true to make (kind, attempt) fail as
     * if the solver had thrown. Null injects nothing.
     */
    std::function<bool(PlacementKind, int attempt)> failInjection;
};

/**
 * Degradation-hardened placement: walk the LP -> Hungarian -> Greedy
 * chain, giving each solver options.maxAttemptsPerStage tries and
 * catching poco::FatalError between them. If the whole chain fails
 * the terminal fallback is the preference-free identity assignment
 * (BE i -> server i), which is always feasible since #BE <= #servers
 * — so this function never throws for a valid matrix.
 *
 * @return Outcome whose value is the assignment (value[i] = server
 *         for BE i, never empty), whose tier names the solver rung
 *         that produced it (Conservative for the identity terminal,
 *         with degradation.conservative set), and whose attempts
 *         counts every solver try across every stage (>= 1).
 */
Outcome<std::vector<int>>
placeWithFallback(const PerformanceMatrix& matrix,
                  const SolverContext& context = {},
                  const FallbackOptions& options = {});

} // namespace poco::cluster
