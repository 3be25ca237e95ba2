/**
 * @file
 * Deterministic fault schedules (the injection half of poco::fault).
 *
 * Pocolo's guarantee — the primary keeps its tail-latency slack and
 * the server never exceeds its provisioned power — is only credible
 * if it survives the sensors and actuators it depends on misbehaving.
 * A FaultPlan is a pre-computed, seed-reproducible schedule of fault
 * windows: power-sensor faults (stuck-at, dropout, bias), actuator
 * faults (DVFS/duty commands silently dropped), telemetry staleness,
 * server crashes, and LC load spikes. Plans are pure data; the
 * server manager delivers them through a FaultInjector at its
 * 100 ms ticks, and the cluster evaluator consumes crash windows
 * directly.
 *
 * Generation draws every stream through Rng::split keyed by
 * (kind, server), so a server's schedule is independent of how many
 * other servers the plan covers and of any evaluation order — the
 * same property that keeps the parallel runtime bit-identical to
 * serial (see DESIGN.md §8).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace poco::fault
{

/**
 * The fault taxonomy (DESIGN.md §10). The last three kinds target
 * the control plane itself (ctrl::MasterGroup) rather than a
 * server: `server` then names a *master* index, and the windows are
 * consumed by the chaos harness, never by a FaultInjector. New
 * kinds append at the end so existing (server, kind) split-stream
 * keys — and therefore every previously generated schedule — stay
 * bit-identical.
 */
enum class FaultKind
{
    SensorStuck,    ///< meter reads freeze at the window-entry value
    SensorDropout,  ///< meter reads return NaN
    SensorBias,     ///< meter reads scaled by (1 + magnitude)
    ActuatorStuck,  ///< freq/duty commands are silently dropped
    TelemetryStale, ///< reads repeat the last delivered value
    ServerCrash,    ///< whole server offline (cluster-level)
    LoadSpike,      ///< offered LC load scaled by (1 + magnitude)
    MasterKill,     ///< master loses its in-memory state (ctrl-level)
    MasterPause,    ///< master stalls but keeps state (ctrl-level)
    EventBurst,     ///< LoadShift volley at `magnitude` events/s
};

const char* faultKindName(FaultKind kind);

/** One contiguous fault episode; active over [start, end). */
struct FaultWindow
{
    SimTime start = 0;
    SimTime end = 0;
    FaultKind kind = FaultKind::SensorStuck;
    /** Kind-specific intensity (bias fraction, spike fraction). */
    double magnitude = 0.0;
    /** Target server index; -1 hits every server. */
    int server = -1;

    bool covers(SimTime t) const { return t >= start && t < end; }
    SimTime duration() const { return end - start; }
};

/** Rates and shapes for FaultPlan::generate (all deterministic). */
struct FaultPlanConfig
{
    /** Plan length; windows never extend past it. 0 = empty plan. */
    SimTime horizon = 0;
    /** Servers the plan covers (per-server independent streams). */
    int servers = 1;

    /** Expected events per simulated minute, per server, per kind. */
    double sensorStuckRate = 0.0;
    double sensorDropoutRate = 0.0;
    double sensorBiasRate = 0.0;
    double actuatorStuckRate = 0.0;
    double telemetryStaleRate = 0.0;
    double crashRate = 0.0;
    double loadSpikeRate = 0.0;
    /** Control-plane fault rates (per master / per burst target). */
    double masterKillRate = 0.0;
    double masterPauseRate = 0.0;
    double eventBurstRate = 0.0;

    /**
     * Masters the control-plane kinds (MasterKill / MasterPause)
     * may target; their windows carry the master index in `server`.
     */
    int masters = 1;
    /** LoadShift events per second inside an EventBurst window. */
    double burstEventsPerSecond = 50.0;

    /** Mean fault-window length (exponential, floored at 100 ms). */
    SimTime meanDuration = 10 * kSecond;
    /** |relative bias| applied during SensorBias windows. */
    double biasMagnitude = 0.25;
    /** Relative load increase during LoadSpike windows. */
    double spikeMagnitude = 0.5;

    /** Root seed; every stream is split from it. */
    std::uint64_t seed = 0;
};

/**
 * An immutable, sorted schedule of fault windows.
 *
 * A default-constructed plan is empty ("faults off"); everything in
 * the library treats a null/empty plan as the byte-identical
 * fault-free path.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /** Deterministically expand a config into a schedule. */
    static FaultPlan generate(const FaultPlanConfig& config);

    /**
     * Wrap explicit windows (tests, hand-crafted scenarios).
     *
     * Overlapping windows for the same (server, kind) pair are
     * deterministically merged into their hull — [a, max(b, d)) for
     * [a, b) and [c, d) with c < b — keeping the earliest-starting
     * window's magnitude, instead of being silently double-applied
     * by downstream consumers. Touching windows (c == b) and
     * windows for distinct (server, kind) keys are kept as given.
     */
    static FaultPlan fromWindows(std::vector<FaultWindow> windows);

    /** True when the plan schedules at least one window. */
    bool enabled() const { return !windows_.empty(); }

    /** All windows, sorted by (start, end, server, kind). */
    const std::vector<FaultWindow>& windows() const { return windows_; }

    /** Latest window end (0 for an empty plan). */
    SimTime horizon() const;

    /** The sub-plan hitting @p server (targeted or broadcast). */
    FaultPlan forServer(int server) const;

    /** The sub-plan of one kind (e.g. every ServerCrash window). */
    FaultPlan ofKind(FaultKind kind) const;

    /**
     * Content hash over every window's bit pattern. Used to key
     * caches: two plans with equal fingerprints and window counts
     * are treated as the same schedule.
     */
    [[nodiscard]] std::uint64_t fingerprint() const;

  private:
    std::vector<FaultWindow> windows_;
};

/**
 * One correlated fault storm: the windows a single bad episode
 * (a rack power event, a firmware rollout gone wrong) would produce
 * across a fleet. Every storm carries a broadcast SensorBias window
 * over [start, end) at @p magnitude plus a seeded burst of
 * ServerCrash windows — roughly one per eight servers, at least
 * one — each covering a sub-interval of the storm. All draws come
 * from SplitMix64(@p seed), so the same (window, seed) pair always
 * yields the same storm regardless of how many storms a plan stacks.
 * Feed the concatenated storms to FaultPlan::fromWindows, which
 * hull-merges any same-(server, kind) overlap.
 */
std::vector<FaultWindow> stormWindows(SimTime start, SimTime end,
                                      int servers, double magnitude,
                                      std::uint64_t seed);

} // namespace poco::fault
