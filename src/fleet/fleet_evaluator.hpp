/**
 * @file
 * poco::fleet — multi-cluster evaluation.
 *
 * POColo's placement story (Section V) is per-cluster, but the
 * deployments the paper targets serve millions of users from many
 * heterogeneous clusters under one datacenter power envelope. The
 * fleet layer adds the aggregate tier above ClusterEvaluator:
 * partition the fleet's servers into clusters by platform, evaluate
 * the clusters concurrently on one shared thread pool (one
 * runtime::parallelFor task per canonical cluster; nested joins
 * help, so a cluster's internally-parallel work cannot deadlock the
 * pool), redistribute unused cluster power budget between epochs,
 * and combine each server run's telemetry rollup into cluster- and
 * fleet-level rollups.
 *
 * Determinism contract: the fleet rollup is bit-identical for any
 * thread count. Clusters are canonical (partition order depends
 * only on the input server list); every per-cluster stochastic
 * stream is seeded by Rng(seed).split(canonical cluster index); each
 * task writes only its own cluster's slots; and all reductions run
 * in fixed cluster/server order.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster_evaluator.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/master_group.hpp"
#include "cluster/fleet_config.hpp"
#include "sim/telemetry_rollup.hpp"
#include "util/outcome.hpp"
#include "util/units.hpp"
#include "wl/registry.hpp"

namespace poco::fleet
{

/** One server in the fleet description. */
struct FleetServer
{
    /**
     * The server's platform: hardware spec plus the workloads it can
     * host. Servers sharing an AppSet (by address) cluster together.
     */
    const wl::AppSet* apps = nullptr;
    /** Which of the platform's LC applications this server hosts. */
    std::size_t lcIndex = 0;
    /**
     * Provisioned power budget. Zero means the hosted LC app's
     * provisionedPower().
     */
    Watts budget{};
};

/** A homogeneous partition of the fleet (one platform). */
struct FleetCluster
{
    const wl::AppSet* apps = nullptr;
    /** Fleet server indices, ascending (canonical member order). */
    std::vector<std::size_t> members;
    /** Each member's hosted LC index (parallel to members). */
    std::vector<std::size_t> lcIndices;
    /** Provisioned budget: sum of the members' resolved budgets. */
    Watts provisioned{};
};

/**
 * Group @p servers into clusters by platform (AppSet address), in
 * first-appearance order — a pure function of the input list, so
 * the canonical cluster indexing is independent of how the clusters
 * are later scheduled.
 */
std::vector<FleetCluster>
partitionFleet(const std::vector<FleetServer>& servers);

/** One cluster's outcome for one fleet epoch. */
struct ClusterEpochOutcome
{
    /** Canonical cluster index. */
    std::size_t cluster = 0;
    /** Cluster power budget in effect during the epoch. */
    Watts budget{};
    /** Per-member power cap the budget divided into. */
    Watts memberCap{};
    /** Placement story (solver tier / attempts / degradation). */
    SolverTier tier = SolverTier::None;
    int solverAttempts = 0;
    Degradation degradation;
    /**
     * Simulator-statistics sums over the members. Each equals its
     * telemetry counterpart below (meanBeThroughput, energy,
     * meanPower) bit for bit: a run's rollup is read off the same
     * statistics, and both sum in member order.
     */
    Rps beThroughput{};
    Joules energy{};
    /**
     * Summed mean power draw of the members (energy / elapsed).
     * Budget redistribution reads it.
     */
    Watts meanDraw{};
    /** True when the power cap bound at least one member. */
    bool capped = false;
    /**
     * The members' telemetry rollups (each run's own
     * [warmup, warmup + dwell) fold) combined in member order.
     */
    sim::EpochRollup telemetry;
};

/** One fleet epoch: every cluster at one load point. */
struct FleetEpoch
{
    double load = 0.0;
    /** Sum of cluster budgets (invariant across redistribution). */
    Watts fleetBudget{};
    /** Canonical cluster order. */
    std::vector<ClusterEpochOutcome> clusters;
    /** Fleet-level telemetry rollup (clusters combined in order). */
    sim::EpochRollup telemetry;
};

/** Fleet-level aggregation of a full run. */
struct FleetRollup
{
    std::vector<FleetEpoch> epochs;
    /** Epoch-summed totals (fixed-order reductions). */
    Rps totalBeThroughput{};
    Joules totalEnergy{};
    Joules totalCapOvershoot{};

    /**
     * FNV-1a over every result bit (loads, budgets, tiers,
     * throughputs, energies, rollups). Equal fingerprints mean
     * bit-identical rollups — the fleet determinism suite and
     * bench_ext_hetero gate on this.
     */
    [[nodiscard]] std::uint64_t fingerprint() const;
};

/**
 * Evaluates a heterogeneous fleet: builds one ClusterEvaluator per
 * canonical cluster (profiling and fitting on the shared pool), then
 * run() walks the epoch schedule. All expensive state is constructed
 * once; run() is const and repeatable.
 */
class FleetEvaluator
{
  public:
    /**
     * @param servers Fleet description; the referenced AppSets must
     *        outlive the evaluator.
     * @param config Unified knobs; see FleetConfig. The per-cluster
     *        evaluators share one pool and derive their seeds from
     *        config.seed via Rng::split(cluster index).
     */
    explicit FleetEvaluator(std::vector<FleetServer> servers,
                            FleetConfig config = {});
    ~FleetEvaluator();

    const FleetConfig& config() const { return config_; }
    const std::vector<FleetCluster>& clusters() const
    {
        return clusters_;
    }
    /** The shared pool cluster evaluation runs on; null = serial. */
    runtime::ThreadPool* pool() const { return pool_; }
    /** The evaluator for canonical cluster @p index. */
    const cluster::ClusterEvaluator&
    clusterEvaluator(std::size_t index) const;

    /**
     * Evaluate every epoch in config().epochLoads: clusters run as
     * one pool task each, each cluster combines its members'
     * telemetry rollups, the fleet combines the clusters', and
     * unused budget moves to power-capped clusters between epochs.
     *
     * @return The fleet rollup wrapped in an Outcome: tier is the
     *         worst placement tier any cluster-epoch used, attempts
     *         sums the solver attempts, and degradation unions every
     *         cluster-epoch's flags (plus budgetClamped when the
     *         redistribution floor bound).
     */
    Outcome<FleetRollup> run() const;

    /**
     * Event-driven alternative to run(): treat the whole fleet as
     * one streaming control-plane cluster. BE rows are every
     * cluster's fitted candidates in canonical (cluster, candidate)
     * order; server columns are the fleet servers in global index
     * order; each cell is estimateCellAtLoad() of the candidate's
     * fitted model against the host server's platform. The heartbeat
     * ladder and incremental-solve knobs come from FleetConfig
     * (withHeartbeat / withStreaming). No telemetry on this path.
     *
     * Deterministic: the rollup fingerprint is a pure function of
     * (fleet, config.seed, log) — identical across thread counts and
     * repeated calls.
     */
    Outcome<ctrl::CtrlRollup>
    runStreaming(const ctrl::EventLog& log) const;

    /**
     * runStreaming() under master faults: the same flattened fleet
     * cluster driven through a ctrl::MasterGroup of
     * config().ctrlMasters masters, checkpointing every
     * config().ctrlCheckpointEvery events. @p masterFaults supplies
     * MasterKill / MasterPause windows (window.server = master
     * index); its other window kinds are ignored here. The lease
     * ladder reuses the heartbeat knobs with a seed split off
     * config().seed, distinct from the server heartbeat stream.
     *
     * Invariants (the chaos suite gates on these): the rollup holds
     * exactly one record per log event, conserves budget to the
     * milliwatt, matches an uninterrupted single-master run on every
     * shed flag and liveness bit, and equals it in every objective's
     * value. It matches on the semantic fingerprint (assignments and
     * objectives bit for bit) when every optimum is unique; a fleet
     * with repeated platforms has tied optima, and a restored master
     * may pick another of equal value, whose objective (a sum in row
     * order) may differ in the last bit. No telemetry on this path.
     */
    Outcome<ctrl::MasterGroupRollup>
    runStreamingWithFailover(const ctrl::EventLog& log,
                             const fault::FaultPlan& masterFaults)
        const;

  private:
    /** Shared assembly for the streaming drivers. */
    struct StreamingSetup
    {
        ctrl::CellModel cells;
        ctrl::ControlPlaneConfig config;
        cluster::SolverContext context;
    };
    StreamingSetup streamingSetup() const;

    ClusterEpochOutcome runClusterEpoch(std::size_t index, double load,
                                        long long budget_mw) const;

    std::vector<FleetServer> servers_;
    FleetConfig config_;
    std::vector<FleetCluster> clusters_;
    std::unique_ptr<runtime::ThreadPool> owned_pool_;
    runtime::ThreadPool* pool_ = nullptr;
    std::vector<std::unique_ptr<cluster::ClusterEvaluator>>
        evaluators_;
};

} // namespace poco::fleet
