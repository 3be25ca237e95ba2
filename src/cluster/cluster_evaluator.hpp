/**
 * @file
 * End-to-end cluster evaluation (Section V-D/V-E).
 *
 * The evaluator owns the full Pocolo pipeline for the 4-LC x 4-BE
 * evaluation cluster: it profiles and fits every application, builds
 * the performance matrix, computes placements, and runs the managed
 * server simulations that the paper's Figs. 12-14 aggregate.
 *
 * Policies (paper naming):
 *  - Random:  random placement + power-unaware (Heracles) manager.
 *  - POM:     random placement + power-optimized manager.
 *  - POColo:  preference-aware placement (LP) + power-optimized
 *             manager.
 * Random placement is reported as the expectation over the uniform
 * random assignment, i.e. each server's metrics averaged over all
 * candidate co-runners.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/fleet_config.hpp"
#include "cluster/performance_matrix.hpp"
#include "cluster/placement.hpp"
#include "fault/fault_plan.hpp"
#include "model/profiler.hpp"
#include "runtime/mutex.hpp"
#include "runtime/thread_pool.hpp"
#include "util/annotations.hpp"
#include "server/server_manager.hpp"
#include "wl/load_trace.hpp"
#include "wl/registry.hpp"

namespace poco::cluster
{

/** Which server manager runs the primaries. */
enum class ManagerKind
{
    Heracles, ///< power-unaware feedback baseline
    Pom,      ///< utility-guided power-optimized manager
};

const char* managerKindName(ManagerKind kind);

/** The paper's three evaluation policies. */
enum class Policy
{
    Random,
    Pom,
    PoColo,
};

const char* policyName(Policy policy);

/** Result of one managed (LC, BE) pairing. */
struct ServerOutcome
{
    std::string lcName;
    std::string beName;
    server::ServerRunResult run;
};

/** Result of one cluster-wide policy evaluation. */
struct ClusterOutcome
{
    std::vector<ServerOutcome> servers;

    double totalBeThroughput() const;
    double meanBeThroughput() const;
    double meanPowerUtilization() const;
    double totalEnergyJoules() const;
    double maxSloViolationFraction() const;
};

/**
 * One stable interval of a crash-plan evaluation: the set of down
 * servers is constant over [start, end) and the placement below was
 * computed over the survivors.
 */
struct ClusterFaultEpoch
{
    SimTime start = 0;
    SimTime end = 0;
    /** Servers offline throughout the epoch. */
    std::vector<int> down;
    /**
     * Placement outcome over the survivors. Full-cluster indices;
     * value[i] = -1 parks BE i.
     */
    Outcome<std::vector<int>> placement;
    /** BE apps no surviving server could take this epoch. */
    int unplaced = 0;
    /** Cluster BE throughput while the epoch holds (units/s). */
    double beThroughput = 0.0;
};

/** Aggregates of runWithServerFaults. */
struct ClusterFaultOutcome
{
    std::vector<ClusterFaultEpoch> epochs;
    SimTime horizon = 0;
    /** Epochs whose assignment differs from the previous one. */
    int replacements = 0;
    /** Total placeWithFallback attempts across every epoch. */
    int solverAttempts = 0;
    /** Epochs placed by the preference-free conservative path. */
    int conservativeEpochs = 0;
    /** Sum of per-epoch unplaced BE counts. */
    int unplacedBeEpochs = 0;
    /** Duration-weighted mean cluster BE throughput (units/s). */
    double timeWeightedThroughput = 0.0;
};

/** The full evaluation pipeline over one application set. */
class ClusterEvaluator
{
  public:
    explicit ClusterEvaluator(const wl::AppSet& apps,
                              FleetConfig config = {});
    ~ClusterEvaluator();

    const wl::AppSet& apps() const { return *apps_; }
    const FleetConfig& config() const { return config_; }

    /** The pool evaluations run on; null means serial. */
    runtime::ThreadPool* pool() const { return pool_; }

    /** Fitted utilities (profiled once at construction). */
    const std::vector<LcServerModel>& lcModels() const
    {
        return lc_models_;
    }
    const std::vector<BeCandidateModel>& beModels() const
    {
        return be_models_;
    }

    /** The model-driven performance matrix (Fig. 7-II). */
    const PerformanceMatrix& matrix() const { return matrix_; }

    /** Solver wiring the evaluator places with: its pool. */
    SolverContext solverContext() const;

    /** Placement under the given algorithm (deterministic seed). */
    std::vector<int> placeBe(PlacementKind kind,
                             std::uint64_t seed = 1) const;

    /** True when every fitted model clears the config's R^2 gate. */
    bool modelsHealthy() const;

    /**
     * Degradation-hardened placement over the surviving servers
     * @p up (full-cluster indices, strictly increasing): gates on
     * modelsHealthy(), drops the lowest-value BEs when they
     * outnumber survivors, and solves the surviving sub-matrix via
     * the LP -> Hungarian -> Greedy fallback chain. The returned
     * outcome's value uses full-cluster indices with -1 for parked
     * BEs; its degradation flags record untrusted models
     * (modelsUntrusted + conservative) and dropped BEs (workShed).
     */
    Outcome<std::vector<int>>
    placeBeRobust(const std::vector<int>& up,
                  const FallbackOptions& options = {}) const;

    /**
     * Evaluate the cluster under a crash schedule: cut the plan's
     * ServerCrash windows into stable epochs, re-place the BEs over
     * each epoch's survivors (bounded retries via the fallback
     * chain), and weight each epoch's steady-state outcome by its
     * duration. Non-crash windows in @p plan are ignored here — the
     * server-level injector consumes those.
     */
    ClusterFaultOutcome
    runWithServerFaults(const fault::FaultPlan& plan, ManagerKind kind,
                        const FallbackOptions& options = {}) const;

    /**
     * Run one (LC, BE) pairing over the stepped load schedule with
     * the given manager. Results are cached: runs are deterministic,
     * and the cache keys on the exact argument values.
     *
     * @param be_idx Index into apps().be, or -1 for "primary alone".
     * @param cap_override Server power capacity to use instead of
     *        the LC app's provisioned power; 0 keeps the default.
     *        Used by the Random(NoCap) TCO variant (185 W).
     */
    ServerOutcome runPair(std::size_t lc_idx, int be_idx,
                          ManagerKind kind,
                          Watts cap_override = Watts{},
                          int seed_variant = 0) const;

    /** Same, but holding the load constant at @p load_fraction. */
    ServerOutcome runPairAtLoad(std::size_t lc_idx, int be_idx,
                                ManagerKind kind,
                                double load_fraction,
                                Watts cap_override = Watts{}) const;

    /** Run a full assignment (result[i] = server for BE i). */
    ClusterOutcome runAssignment(const std::vector<int>& assignment,
                                 ManagerKind kind) const;

    /**
     * Expected outcome of uniform-random placement: each server's
     * metrics averaged over all BE candidates.
     *
     * @param cap_override See runPair().
     */
    ClusterOutcome runRandomAveraged(ManagerKind kind,
                                     Watts cap_override = Watts{}) const;

    /** Evaluate one of the paper's named policies end to end. */
    ClusterOutcome runPolicy(Policy policy) const;

  private:
    std::unique_ptr<server::PrimaryController>
    makeController(std::size_t lc_idx, ManagerKind kind,
                   int seed_variant) const;

    /**
     * runPair (stepped schedule, @p load_fraction empty) and
     * runPairAtLoad (constant load) behind one memo.
     */
    ServerOutcome memoizedRun(std::size_t lc_idx, int be_idx,
                              ManagerKind kind, Watts cap_override,
                              int seed_variant,
                              std::optional<double> load_fraction)
        const;

    const wl::AppSet* apps_;
    FleetConfig config_;
    std::unique_ptr<runtime::ThreadPool> owned_pool_;
    runtime::ThreadPool* pool_ = nullptr;
    std::vector<LcServerModel> lc_models_;
    std::vector<BeCandidateModel> be_models_;
    PerformanceMatrix matrix_;

    /**
     * Pair-run memo key: LC index, BE index, manager, seed variant,
     * constant-load flag, and the bit patterns of the load and the
     * cap override.
     */
    using PairKey = std::tuple<std::size_t, int, ManagerKind, int,
                               bool, std::uint64_t, std::uint64_t>;

    /**
     * Pair-run memoization. Concurrent tasks may race to compute the
     * same key; runs are deterministic, so both writers produce the
     * same value and the first insert wins. The mutex only guards
     * the map itself.
     */
    mutable runtime::Mutex cache_mutex_;
    mutable std::map<PairKey, ServerOutcome> cache_
        POCO_GUARDED_BY(cache_mutex_);
};

} // namespace poco::cluster
