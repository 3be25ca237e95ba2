/**
 * @file
 * Server manager: runs one server's management loops — the offered
 * load, the primary controller, the best-effort throttler and
 * telemetry — on its own 100 ms clock, and provides a one-call
 * scenario runner used by the cluster manager, the benches, and the
 * tests.
 *
 * The manager applies the initial load at t = 0. Every loop period
 * is a multiple of the 100 ms tick, and each tick T runs in one
 * fixed order:
 *  1. the fault injector's window edges at or before T;
 *  2. the loops due at T, longest period first: the primary
 *     controller before the 1 s load update when controlPeriod is
 *     longer than 1 s, otherwise the load update and then control;
 *  3. the BE throttle;
 *  4. telemetry, only when the run keeps its samples.
 */

#pragma once

#include <memory>
#include <optional>

#include "fault/fault_injector.hpp"
#include "server/be_throttler.hpp"
#include "server/colocated_server.hpp"
#include "server/primary_controller.hpp"
#include "sim/telemetry.hpp"
#include "sim/telemetry_rollup.hpp"
#include "wl/load_trace.hpp"

namespace poco::server
{

/**
 * Degradation-ladder switch (DESIGN.md §10). The watchdog only runs
 * when the manager is given a fault plan; the fault-free path never
 * evaluates it. Its thresholds are constants in server_manager.cpp.
 */
struct WatchdogConfig
{
    bool enabled = true;
};

/**
 * Periods and tunables of the management loops. The BE throttle
 * (paper: every 100 ms), telemetry (100 ms) and offered-load (1 s)
 * periods are constants in server_manager.cpp.
 */
struct ServerManagerConfig
{
    /**
     * Primary controller decision period (paper: every second). A
     * positive multiple of the 100 ms tick.
     */
    SimTime controlPeriod = 1 * kSecond;
    /** Settling time excluded from the reported statistics. */
    SimTime warmup = 60 * kSecond;
    /**
     * Keep the run's telemetry samples: the manager's recorder and
     * ServerRunResult::telemetry hold the whole 100 ms series (up to
     * ~2^20 samples). Off by default, and then no sample is built:
     * ServerRunResult::steady comes from the server statistics, and
     * only a caller that reads the series itself (a time-series
     * plot, a cross-check of the rollup) needs it kept.
     */
    bool keepTelemetry = false;

    ControllerConfig controller;
    ThrottlerConfig throttler;
    WatchdogConfig watchdog;
};

/** What the watchdog saw and did over a run (reporting only). */
struct FaultRunStats
{
    long degradedTicks = 0;    ///< throttle ticks spent degraded
    long degradedEntries = 0;  ///< normal -> degraded transitions
    long evictions = 0;        ///< BE kills from sustained overshoot
    long invalidReadings = 0;  ///< NaN / negative / implausible reads
    long unconfirmedTicks = 0; ///< commands that did not read back
    long probes = 0;           ///< deliberate DVFS probes issued
    /** Ground-truth integral of max(0, power - cap). */
    Joules capOvershootJoules;
    /** Ground-truth max(0, peak power - cap). */
    Watts maxOvershoot;
};

/** Outcome of one managed run. */
struct ServerRunResult
{
    ServerStats stats;
    /** Average power as a fraction of the provisioned capacity. */
    double powerUtilization = 0.0;
    /** Mean tail-latency slack of the primary over the run. */
    double averageSlack = 0.0;
    /** Fraction of samples with slack below the controller target. */
    double slackShortfallFraction = 0.0;
    /** Degradation-ladder counters (all zero on fault-free runs). */
    FaultRunStats faults;
    /**
     * The statistics window, from the last resetStats() (or t = 0)
     * to the manager's clock at result(), as a telemetry rollup read
     * off `stats`: one sample per 100 ms interval. It equals
     * sim::foldTelemetry of the run's kept samples against the power
     * cap, bit for bit. runServerScenario's window is
     * [warmup, duration).
     */
    sim::EpochRollup steady;
    /**
     * The run's telemetry samples, oldest first. Empty unless
     * ServerManagerConfig::keepTelemetry was set.
     */
    std::vector<sim::TelemetrySample> telemetry;
};

/**
 * Drives one ColocatedServer on the 100 ms clock.
 *
 * The manager owns its controller, its clock and its fault injector,
 * and borrows the server, which must outlive it.
 */
class ServerManager
{
  public:
    /** The clock's step; every loop period is a multiple of it. */
    static constexpr SimTime kTick = 100 * kMillisecond;

    /**
     * Apply the initial load at t = 0.
     *
     * @param faults Optional fault schedule (copied). With a
     *        non-empty plan, meter reads and throttle commands pass
     *        through a FaultInjector over the server's meter, and
     *        with watchdog.enabled the degradation ladder (DESIGN.md
     *        §10) arms on single-secondary servers. nullptr or an
     *        empty plan runs the byte-identical fault-free path.
     */
    ServerManager(ColocatedServer& server,
                  std::unique_ptr<PrimaryController> controller,
                  wl::LoadTrace trace, ServerManagerConfig config = {},
                  const fault::FaultPlan* faults = nullptr);

    /**
     * Run every tick after now() and at or before @p deadline, in the
     * order the file comment gives; then deliver the window edges up
     * to @p deadline and set now() to it. The server integrates only
     * as far as its last change: call server().advanceTo(now())
     * before reading statistics that must cover the whole interval.
     */
    void runUntil(SimTime deadline);

    /** The manager's clock: the last runUntil() deadline, or 0. */
    SimTime now() const { return now_; }

    /** True while the watchdog holds the BE at the degraded floor. */
    bool degraded() const { return degraded_; }

    const ColocatedServer& server() const { return *server_; }
    ColocatedServer& server() { return *server_; }
    /** The kept samples; empty unless config().keepTelemetry. */
    const sim::TelemetryRecorder& telemetry() const
    {
        return telemetry_;
    }
    const ServerManagerConfig& config() const { return config_; }

    /**
     * Summarize statistics accumulated since the last reset. The
     * server must have been advanced to now().
     */
    ServerRunResult result() const;

    /**
     * Forget warm-up history (stats and slack samples) and reopen
     * the statistics window at now().
     */
    void resetStats();

  private:
    /** One tick: window edges, then the loops due at @p now. */
    void tick(SimTime now);
    void loadTick(SimTime now);
    void controlTick(SimTime now);
    void throttleTick(SimTime now);
    void telemetryTick(SimTime now);

    /** The power reading the loops see (injector-distorted). */
    Watts measuredPower(SimTime now);
    /** Install a BE allocation through the actuator shim. */
    void applyBeAlloc(SimTime now, std::size_t slot,
                      const sim::Allocation& next);
    /** True when the degradation ladder is armed for this run. */
    bool watchdogArmed() const;
    /**
     * One watchdog step; returns true when the reactive throttler
     * must hold off this tick (degraded clamp or in-flight probe).
     */
    bool watchdogTick(SimTime now, Watts measured);

    ColocatedServer* server_;
    std::unique_ptr<PrimaryController> controller_;
    wl::LoadTrace trace_;
    ServerManagerConfig config_;
    BeThrottler throttler_;
    SimTime now_ = 0;
    sim::TelemetryRecorder telemetry_;
    /** Where the statistics window opened (the last resetStats()). */
    SimTime stats_start_ = 0;
    /** Present only with a non-empty fault plan. */
    std::optional<fault::FaultInjector> injector_;

    /** Slack tracking for result(). */
    double slack_sum_ = 0.0;
    std::size_t slack_samples_ = 0;
    std::size_t slack_shortfalls_ = 0;

    /** Watchdog state (DESIGN.md §10; untouched without injector). */
    bool degraded_ = false;
    bool conservative_regrant_ = false;
    int bad_streak_ = 0;
    int sane_streak_ = 0;
    int frozen_streak_ = 0;
    int overshoot_streak_ = 0;
    bool have_last_reading_ = false;
    Watts last_reading_;
    bool command_pending_ = false;
    sim::Allocation commanded_;
    bool probe_pending_ = false;
    sim::Allocation pre_probe_;
    FaultRunStats fault_stats_;
};

/**
 * Convenience: build a server, manage it with the given controller
 * over @p duration of simulated time, and report the results
 * (statistics exclude the configured warm-up).
 *
 * @param be Pass nullptr to run the primary alone.
 * @param faults Optional fault schedule; nullptr or an empty plan
 *        runs the byte-identical fault-free path.
 */
ServerRunResult
runServerScenario(const wl::LcApp& lc, const wl::BeApp* be,
                  Watts power_cap,
                  std::unique_ptr<PrimaryController> controller,
                  wl::LoadTrace trace, SimTime duration,
                  ServerManagerConfig config = {},
                  const fault::FaultPlan* faults = nullptr);

} // namespace poco::server
