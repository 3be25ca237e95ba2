/**
 * @file
 * poco::FleetConfig — the one knob surface for evaluation runs.
 *
 * Earlier revisions scattered run configuration across three places:
 * cluster::EvaluatorConfig (load schedule, profiler, fit gate),
 * cluster::SolverConfig (LP cutoffs, memo cache), and loose
 * `threads` / `seed` arguments threaded through benches and the CLI.
 * Every consumer stitched them together slightly differently, and
 * the fleet layer would have added a fourth bundle on top.
 *
 * FleetConfig subsumes all of them: one value type, builder-style
 * `withX()` setters that only assign, and a `validated()` gate the
 * evaluators run before using it. `validated()` is the one home of
 * every rule, so a setter and a direct field write are held to the
 * same checks and no copy can drift. The old structs survived one PR
 * as deprecated shims and are now gone; the poco_lint
 * `deprecated-config` rule flags any reappearance. The streaming
 * control-plane knobs are the exception: FleetConfig only carries
 * them, and ctrl checks them where it uses them (HeartbeatTracker,
 * validateControlPlaneConfig, MasterGroup), so a batch run never
 * rejects a knob it does not read.
 *
 * The struct lives in namespace poco (not poco::fleet) because every
 * layer consumes it: ClusterEvaluator takes it directly, and
 * fleet::FleetEvaluator adds no config type of its own. The header
 * lives under cluster/ — the lowest layer that consumes it — so that
 * no cluster header reaches *up* into fleet/ (the poco_lint
 * `layering` rule enforces the downward-only include DAG).
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "model/profiler.hpp"
#include "server/server_manager.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco
{

/** Unified evaluation configuration (cluster and fleet layers). */
struct FleetConfig
{
    // ----- cluster evaluation (formerly cluster::EvaluatorConfig) --

    /** LC load points (uniform distribution, paper: 10%..90%). */
    std::vector<double> loadPoints =
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
    /** Dwell per load point in the stepped trace. */
    SimTime dwell = 120 * kSecond;
    /** Per-server manager configuration. */
    server::ServerManagerConfig server;
    /** Profiler settings for the model-fitting stage. */
    model::ProfilerConfig profiler;
    /**
     * Root seed mixed into every stochastic stream (profiling noise,
     * the baseline controller's random indifference-curve draws, and
     * the fleet layer's per-cluster stream splits). Re-running a
     * policy under several seeds measures how much of a result is
     * seed luck; see bench_fig12_throughput.
     */
    std::uint64_t seed = 0;
    /**
     * Controller-seed replicas averaged into the Random baseline.
     * Its server manager draws random indifference-curve points, so
     * a single sequence is a high-variance estimate of the policy's
     * expectation; each extra replica re-runs the pair with a fresh
     * seed. POM/POColo are deterministic given the fitted models and
     * ignore this.
     */
    int heraclesReplicas = 3;
    /**
     * Fit-health gate for robust placement: when any fitted model's
     * perf/power R^2 falls below these thresholds, placeBeRobust()
     * stops trusting the preference matrix and uses the conservative
     * preference-free allocation instead. 0 disables the gate; a
     * gate above 1 is allowed and means "never trust the fits"
     * (always place conservatively).
     */
    double minPerfR2 = 0.0;
    double minPowerR2 = 0.0;

    // ----- execution (formerly loose threads args + SolverConfig) --

    /**
     * Worker threads for the evaluation pipeline (profiling, fits,
     * matrix cells, and per-server simulation runs): 1 runs serial
     * on the calling thread, 0 uses the process-wide pool (hardware
     * concurrency), N > 1 uses a dedicated pool of N workers. Every
     * setting produces bit-identical results — tasks draw from
     * deterministic split streams and write index-addressed slots.
     * Ignored when `pool` is set.
     */
    int threads = 0;
    /**
     * Borrowed pool overriding `threads`. The fleet layer sets this
     * so every per-cluster evaluator shares ONE pool — nested joins
     * help execute queued tasks instead of blocking, so there is no
     * pool-in-pool deadlock and no thread explosion.
     */
    runtime::ThreadPool* pool = nullptr;
    /**
     * Ignored: read by nothing in src/ (the LP's fan-out cutoff is a
     * fixed tableau size in simplex.cpp). Still declared only because
     * benchmark/src/streaming.cpp:708 reads it.
     */
    std::size_t solverPivotCutoff = 4096;
    /**
     * Ignored, like solverPivotCutoff; read only by
     * benchmark/src/streaming.cpp:709.
     */
    std::size_t solverPricingGrain = 2048;

    // ----- fleet layer -------------------------------------------

    /**
     * Ignored: the fleet evaluator schedules one pool task per
     * canonical cluster. Still declared only because
     * benchmark/src/fleet_day.cpp:84 calls withShards().
     */
    int shards = 1;
    /**
     * Fleet epoch schedule: one entry per epoch, each the LC load
     * fraction every cluster serves for that epoch. Budget
     * redistribution runs between consecutive epochs.
     */
    std::vector<double> epochLoads = {0.3, 0.6, 0.9};
    /**
     * Optional per-cluster epoch loads from a generated scenario,
     * flattened epoch-major: epochClusterLoads[e * width + c] is
     * cluster c's load in epoch e. Empty (width 0) means every
     * cluster serves epochLoads[e] — the pre-scenario behaviour.
     * When set, epochLoads still holds one entry per epoch (the
     * per-epoch fleet mean) so epoch counting and reports are
     * unchanged, and the evaluator checks width against the
     * partitioned cluster count.
     */
    std::vector<double> epochClusterLoads;
    /** Clusters per epoch row of epochClusterLoads (0 = unset). */
    std::size_t epochClusterWidth = 0;
    /**
     * Total fleet power budget. Zero means "sum of the member
     * servers' provisioned budgets"; a non-zero value is split over
     * clusters proportionally to their provisioned sums.
     */
    Watts fleetBudget{};
    /** Move unused per-cluster budget to capped clusters each epoch. */
    bool redistributeBudget = true;
    /**
     * Ignored: no telemetry fold runs asynchronously. Still declared
     * only because benchmark/src/streaming.cpp:731 reads it.
     */
    bool asyncTelemetry = true;

    // ----- streaming control plane (fleet::runStreaming) ---------
    //
    // Plain-typed knobs (no ctrl:: includes) that the fleet layer
    // assembles into a ctrl::ControlPlaneConfig; the epoch loop
    // above and the event loop below are alternative drivers over
    // the same fitted models. ctrl checks their rules when a
    // streaming run builds the plane.

    /** Nominal heartbeat period in logical ticks. */
    SimTime heartbeatPeriod = kSecond;
    /** Uniform per-beat jitter in [0, heartbeatJitter] ticks. */
    SimTime heartbeatJitter = kSecond / 10;
    /** Consecutive misses before Alive demotes to Suspect. */
    int heartbeatSuspectMisses = 2;
    /** Consecutive misses before Suspect demotes to Dead. */
    int heartbeatDeadMisses = 4;
    /** LC load fraction every server starts the event loop at. */
    double streamingInitialLoad = 0.5;
    /** Bench baseline: cold placeWithFallback on every event. */
    bool streamingForceCold = false;
    /**
     * Masters in the control-plane group for
     * runStreamingWithFailover (primary + standbys). The lease
     * ladder reuses the heartbeat knobs above with a seed split off
     * config.seed, so master elections are replayable.
     */
    std::size_t ctrlMasters = 2;
    /** Checkpoint the primary every this many applied events. */
    std::size_t ctrlCheckpointEvery = 16;
    /** Bound the master's event-admission queue (shed past it). */
    bool backpressureEnabled = false;
    /** Maximum admitted-but-unfinished re-solves before shedding. */
    std::size_t backpressureWindow = 8;
    /** Logical ticks one admitted ladder re-solve occupies. */
    SimTime backpressureResolveCost = 100 * kMillisecond;

    // ----- builder setters ---------------------------------------

    FleetConfig& withLoadPoints(std::vector<double> points)
    {
        loadPoints = std::move(points);
        return *this;
    }
    FleetConfig& withDwell(SimTime value)
    {
        dwell = value;
        return *this;
    }
    FleetConfig& withSeed(std::uint64_t value)
    {
        seed = value;
        return *this;
    }
    FleetConfig& withHeraclesReplicas(int value)
    {
        heraclesReplicas = value;
        return *this;
    }
    FleetConfig& withThreads(int value)
    {
        threads = value;
        return *this;
    }
    FleetConfig& withPool(runtime::ThreadPool* value)
    {
        pool = value;
        return *this;
    }
    /** Ignored; see shards (benchmark/src/fleet_day.cpp:84). */
    FleetConfig& withShards(int value)
    {
        shards = value;
        return *this;
    }
    FleetConfig& withEpochLoads(std::vector<double> loads)
    {
        epochLoads = std::move(loads);
        return *this;
    }
    /**
     * Adopt a generated scenario's per-cluster epoch schedule:
     * @p loads is epoch-major with @p width clusters per row (see
     * epochClusterLoads). epochLoads is rewritten to the per-epoch
     * means so the epoch count and fleet-level reporting stay
     * consistent. The one rule checked here is @p width >= 1, which
     * the means divide by; validated() checks the rows and loads.
     */
    FleetConfig& withScenarioLoads(std::vector<double> loads,
                                   std::size_t width)
    {
        POCO_CHECK(width >= 1,
                   "scenario loads need at least one cluster");
        const std::size_t n_epochs = loads.size() / width;
        std::vector<double> means(n_epochs, 0.0);
        for (std::size_t e = 0; e < n_epochs; ++e) {
            for (std::size_t c = 0; c < width; ++c)
                means[e] += loads[e * width + c];
            means[e] /= static_cast<double>(width);
        }
        epochClusterLoads = std::move(loads);
        epochClusterWidth = width;
        epochLoads = std::move(means);
        return *this;
    }

    /**
     * Adopt a scen::ScenarioSpec or generated scen::Scenario.
     * Duck-typed (the cluster layer cannot name scen types): a spec
     * — anything with generate() — is expanded first; a scenario
     * contributes its epoch-major loads and width via
     * withScenarioLoads. The scenario's servers() still need to be
     * handed to the evaluator (fleet::serversFromScenario does
     * both).
     */
    template <typename S>
    FleetConfig& withScenario(const S& scenario)
    {
        if constexpr (requires { scenario.generate(); }) {
            return withScenario(scenario.generate());
        } else {
            return withScenarioLoads(scenario.epochClusterLoads(),
                                     scenario.epochClusterWidth());
        }
    }

    FleetConfig& withFleetBudget(Watts value)
    {
        fleetBudget = value;
        return *this;
    }
    FleetConfig& withBudgetRedistribution(bool value)
    {
        redistributeBudget = value;
        return *this;
    }
    FleetConfig& withHeartbeat(SimTime period, SimTime jitter,
                               int suspect_misses, int dead_misses)
    {
        heartbeatPeriod = period;
        heartbeatJitter = jitter;
        heartbeatSuspectMisses = suspect_misses;
        heartbeatDeadMisses = dead_misses;
        return *this;
    }
    FleetConfig& withStreaming(double initial_load, bool force_cold)
    {
        streamingInitialLoad = initial_load;
        streamingForceCold = force_cold;
        return *this;
    }
    FleetConfig& withFailover(std::size_t masters,
                              std::size_t checkpoint_every)
    {
        ctrlMasters = masters;
        ctrlCheckpointEvery = checkpoint_every;
        return *this;
    }
    FleetConfig& withBackpressure(std::size_t window,
                                  SimTime resolve_cost)
    {
        backpressureEnabled = true;
        backpressureWindow = window;
        backpressureResolveCost = resolve_cost;
        return *this;
    }

    /**
     * Check the rules of every field but the streaming knobs.
     * Returns *this so evaluator constructors can chain on it.
     *
     * @throws poco::FatalError naming the first rule that fails.
     */
    const FleetConfig& validated() const
    {
        POCO_CHECK(!loadPoints.empty(),
                   "loadPoints must be non-empty");
        for (const double p : loadPoints)
            POCO_CHECK(p > 0.0 && p <= 1.0,
                       "load points must be in (0, 1]");
        POCO_CHECK(dwell > 0, "dwell must be positive");
        POCO_CHECK(heraclesReplicas >= 1,
                   "heraclesReplicas must be at least 1");
        POCO_CHECK(minPerfR2 >= 0.0,
                   "minPerfR2 must be non-negative");
        POCO_CHECK(minPowerR2 >= 0.0,
                   "minPowerR2 must be non-negative");
        POCO_CHECK(threads >= 0,
                   "threads must be >= 0 (0 = shared pool)");
        POCO_CHECK(!epochLoads.empty(),
                   "epochLoads must be non-empty");
        for (const double p : epochLoads)
            POCO_CHECK(p > 0.0 && p <= 1.0,
                       "epoch loads must be in (0, 1]");
        if (epochClusterWidth > 0) {
            POCO_CHECK(!epochClusterLoads.empty() &&
                           epochClusterLoads.size() %
                                   epochClusterWidth ==
                               0,
                       "scenario loads must be whole epoch rows");
            POCO_CHECK(epochClusterLoads.size() /
                               epochClusterWidth ==
                           epochLoads.size(),
                       "scenario loads disagree with epoch count");
            for (const double p : epochClusterLoads)
                POCO_CHECK(p > 0.0 && p <= 1.0,
                           "scenario loads must be in (0, 1]");
        } else {
            POCO_CHECK(epochClusterLoads.empty(),
                       "epochClusterLoads set without a width");
        }
        POCO_CHECK(fleetBudget >= Watts{},
                   "fleetBudget must be non-negative");
        return *this;
    }
};

} // namespace poco
