#include "server/server_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace poco::server
{

namespace
{

// The BE power throttle (paper: every 100 ms) and telemetry run at
// every tick.

/** Offered-load update period (trace resolution). */
constexpr SimTime kLoadPeriod = 1 * kSecond;

// Degradation-ladder thresholds (DESIGN.md §10), counted in
// throttle ticks.

/** Readings above cap * factor are treated as sensor garbage. */
constexpr double kMaxCredibleFactor = 1.6;
/** Consecutive bad throttle ticks before entering degraded. */
constexpr int kFaultTicksToDegrade = 3;
/** Consecutive sane ticks before leaving degraded. */
constexpr int kSaneTicksToRecover = 30;
/**
 * Frozen identical readings before a deliberate DVFS probe. A
 * steady fault-free system also produces identical readings, so
 * every probe interval pays a 100 ms throughput dip — this probes a
 * quiet meter every ~5 s.
 */
constexpr int kFrozenTicksToProbe = 50;
/** Degraded ticks of overshoot evidence before BE eviction. */
constexpr int kOvershootTicksToEvict = 20;
/** Watts above cap that count as overshoot while degraded. */
constexpr Watts kOvershootMargin{1.0};

} // namespace

ServerManager::ServerManager(
    ColocatedServer& server,
    std::unique_ptr<PrimaryController> controller,
    wl::LoadTrace trace, ServerManagerConfig config,
    const fault::FaultPlan* faults)
    : server_(&server), controller_(std::move(controller)),
      trace_(std::move(trace)), config_(config),
      throttler_(config.throttler), steady_(server.powerCap(), 0)
{
    POCO_REQUIRE(controller_ != nullptr, "controller must be set");
    POCO_REQUIRE(config_.controlPeriod > 0 &&
                     config_.controlPeriod % kTick == 0,
                 "control period must be a positive multiple of "
                 "100 ms");
    if (faults != nullptr && faults->enabled())
        injector_.emplace(*faults, &server.meter());
    // The initial load lands before any t = 0 window edge: a spike
    // opening at t = 0 first shows at the 1 s load tick.
    loadTick(0);
}

void
ServerManager::runUntil(SimTime deadline)
{
    for (SimTime t = (now_ / kTick + 1) * kTick; t <= deadline;
         t += kTick) {
        now_ = t;
        tick(t);
    }
    if (injector_)
        injector_->advanceTo(deadline);
    now_ = std::max(now_, deadline);
}

void
ServerManager::tick(SimTime now)
{
    if (injector_)
        injector_->advanceTo(now);
    const bool control = now % config_.controlPeriod == 0;
    const bool control_first = config_.controlPeriod > kLoadPeriod;
    if (control && control_first)
        controlTick(now);
    if (now % kLoadPeriod == 0)
        loadTick(now);
    if (control && !control_first)
        controlTick(now);
    throttleTick(now);
    telemetryTick(now);
}

void
ServerManager::loadTick(SimTime now)
{
    double fraction = trace_.at(now);
    if (injector_)
        // Spikes stack multiplicatively but saturate at the app's
        // peak: the front-end load balancer cannot offer more.
        fraction = std::min(1.0,
                            fraction * injector_->loadFactor(now));
    server_->setLoad(now, fraction * server_->lc().peakLoad());
}

void
ServerManager::controlTick(SimTime now)
{
    server_->advanceTo(now);
    const sim::Allocation next = controller_->decide(*server_);
    if (!(next == server_->primaryAlloc()))
        server_->setPrimaryAlloc(now, next);

    // With a single secondary, hand it the whole spare, preserving
    // its current throttle state (frequency and duty cycle). With
    // spatial sharing (2+ slots) the slices are placed explicitly by
    // the planner and only clipped by primary growth. While the
    // watchdog holds the server degraded the hand-off is frozen, so
    // a clamped or evicted secondary is not silently re-expanded.
    if (server_->secondaryCount() == 1 && server_->be() != nullptr &&
        !degraded_) {
        const sim::Allocation spare =
            sim::spareOf(server_->primaryAlloc(), server_->spec());
        sim::Allocation be = server_->beAlloc();
        const bool parked = be.empty();
        be.cores = spare.cores;
        be.ways = spare.ways;
        if (parked) {
            // After recovering from degraded mode, re-admit at the
            // conservative floor and let the throttler release it
            // step by step (hysteresis against flapping).
            be.freq = conservative_regrant_
                          ? server_->spec().freqMin
                          : server_->spec().freqMax;
            be.dutyCycle = conservative_regrant_
                               ? config_.throttler.minDutyCycle
                               : 1.0;
        }
        if (!(be == server_->beAlloc()))
            server_->setBeAlloc(now, be);
        conservative_regrant_ = false;
    } else if (server_->secondaryCount() == 1 &&
               server_->be() != nullptr &&
               !server_->beAlloc().empty()) {
        // Degraded: the secondary still follows the primary's
        // footprint (way power is frequency-independent, so holding
        // stale cores/ways would overshoot the cap when the primary
        // grows) but at the clamp floor. An evicted secondary stays
        // parked until recovery.
        const sim::Allocation spare =
            sim::spareOf(server_->primaryAlloc(), server_->spec());
        sim::Allocation be = server_->beAlloc();
        be.cores = spare.cores;
        be.ways = spare.ways;
        be.freq = server_->spec().freqMin;
        be.dutyCycle = config_.throttler.minDutyCycle;
        if (!(be == server_->beAlloc()))
            applyBeAlloc(now, 0, be);
    }

    // Slack bookkeeping for result().
    const double slack = server_->slack99();
    slack_sum_ += slack;
    ++slack_samples_;
    if (slack < config_.controller.minSlack)
        ++slack_shortfalls_;
}

void
ServerManager::throttleTick(SimTime now)
{
    server_->advanceTo(now);
    const Watts measured = measuredPower(now);
    const bool hold =
        watchdogArmed() && watchdogTick(now, measured);
    if (!hold) {
        for (std::size_t slot = 0; slot < server_->secondaryCount();
             ++slot) {
            if (server_->beAppAt(slot) == nullptr ||
                server_->beAllocAt(slot).empty())
                continue;
            const sim::Allocation next =
                throttler_.decideAt(*server_, slot, now, measured);
            if (!(next == server_->beAllocAt(slot)))
                applyBeAlloc(now, slot, next);
        }
    }
}

Watts
ServerManager::measuredPower(SimTime now)
{
    return injector_
               ? injector_->readPower(server_->meter(), now,
                                      config_.throttler.window)
               : server_->meter().average(now,
                                          config_.throttler.window);
}

void
ServerManager::applyBeAlloc(SimTime now, std::size_t slot,
                            const sim::Allocation& next)
{
    sim::Allocation landed = next;
    if (injector_)
        landed = injector_->apply(server_->beAllocAt(slot), next, now);
    if (!(landed == server_->beAllocAt(slot)))
        server_->setBeAllocAt(now, slot, landed);
    if (watchdogArmed() && slot == 0) {
        // Remember what was asked for so the next watchdog tick can
        // check that it actually landed and moved the meter.
        commanded_ = next;
        command_pending_ = true;
    }
}

bool
ServerManager::watchdogArmed() const
{
    return injector_ && config_.watchdog.enabled &&
           server_->secondaryCount() == 1 &&
           server_->be() != nullptr;
}

bool
ServerManager::watchdogTick(SimTime now, Watts measured)
{
    const Watts cap = server_->powerCap();
    const bool valid = std::isfinite(measured.value()) &&
                       measured >= Watts{} &&
                       measured <= cap * kMaxCredibleFactor;

    bool bad = false;
    if (!valid) {
        ++fault_stats_.invalidReadings;
        bad = true;
    }

    // Confirm the previous tick's command: it must read back as
    // issued, and a valid reading must have moved in response (the
    // simulated server is piecewise constant, so any landed freq or
    // duty change shifts the trailing average).
    if (command_pending_) {
        command_pending_ = false;
        if (!(server_->beAlloc() == commanded_)) {
            ++fault_stats_.unconfirmedTicks;
            bad = true;
        } else if (valid && have_last_reading_ &&
                   measured == last_reading_) {
            ++fault_stats_.unconfirmedTicks;
            bad = true;
        }
    }

    // Evaluate an in-flight probe: if the deliberate step-down did
    // not move a valid reading either, the sensor is provably frozen
    // — conclusive on its own, no streak needed.
    bool probe_failed = false;
    if (probe_pending_) {
        probe_pending_ = false;
        if (valid && have_last_reading_ && measured == last_reading_) {
            bad = true;
            probe_failed = true;
        }
        // Restore only the throttle state: a control tick may have
        // resized the secondary since the probe was issued, and the
        // stale pre-probe cores/ways must not clobber that.
        sim::Allocation restore = server_->beAlloc();
        restore.freq = pre_probe_.freq;
        restore.dutyCycle = pre_probe_.dutyCycle;
        if (!(restore == server_->beAlloc()))
            applyBeAlloc(now, 0, restore);
        frozen_streak_ = 0;
    }

    // Track how long valid readings have been bit-identical while
    // the loop is otherwise quiet — the stuck-low blind spot.
    if (!bad && !degraded_ && valid && have_last_reading_ &&
        measured == last_reading_)
        ++frozen_streak_;
    else
        frozen_streak_ = 0;

    if (valid) {
        last_reading_ = measured;
        have_last_reading_ = true;
    }

    if (bad) {
        ++bad_streak_;
        sane_streak_ = 0;
    } else {
        sane_streak_ = std::min(sane_streak_ + 1, 1 << 20);
        bad_streak_ = 0;
    }
    if (probe_failed)
        bad_streak_ = std::max(bad_streak_, kFaultTicksToDegrade);

    if (!degraded_) {
        if (bad_streak_ >= kFaultTicksToDegrade) {
            degraded_ = true;
            ++fault_stats_.degradedEntries;
            overshoot_streak_ = 0;
            frozen_streak_ = 0;
        } else if (frozen_streak_ >= kFrozenTicksToProbe &&
                   !command_pending_ && !server_->beAlloc().empty()) {
            // Step the secondary down one DVFS notch (or one duty
            // step at the frequency floor) and watch whether the
            // meter follows.
            pre_probe_ = server_->beAlloc();
            sim::Allocation step = pre_probe_;
            step.freq = server_->spec().stepDown(step.freq);
            if (step == pre_probe_ &&
                step.dutyCycle > config_.throttler.minDutyCycle)
                step.dutyCycle =
                    std::max(config_.throttler.minDutyCycle,
                             step.dutyCycle -
                                 config_.throttler.dutyStep);
            if (!(step == pre_probe_)) {
                ++fault_stats_.probes;
                applyBeAlloc(now, 0, step);
                probe_pending_ = true;
            }
            frozen_streak_ = 0;
        }
    }

    if (!degraded_)
        return probe_pending_;

    // --- Degraded: hold the secondary at the conservative floor ---
    ++fault_stats_.degradedTicks;
    sim::Allocation clamp = server_->beAlloc();
    if (!clamp.empty()) {
        clamp.freq = server_->spec().freqMin;
        clamp.dutyCycle = config_.throttler.minDutyCycle;
        if (!(server_->beAlloc() == clamp))
            applyBeAlloc(now, 0, clamp);
    }
    // Escalate to eviction when even the clamp does not land or a
    // valid reading keeps showing overshoot despite it.
    const bool clamp_unconfirmed =
        !clamp.empty() && !(server_->beAlloc() == clamp);
    const bool overshooting =
        valid && measured > cap + kOvershootMargin;
    if (clamp_unconfirmed || overshooting)
        ++overshoot_streak_;
    else
        overshoot_streak_ = 0;
    if (overshoot_streak_ >= kOvershootTicksToEvict &&
        !server_->beAlloc().empty()) {
        // Eviction is a job kill, not a DVFS write: it always lands.
        server_->setBeAlloc(now, sim::Allocation{
                                     0, 0, server_->spec().freqMax,
                                     1.0});
        command_pending_ = false;
        ++fault_stats_.evictions;
        overshoot_streak_ = 0;
    }
    if (sane_streak_ >= kSaneTicksToRecover) {
        degraded_ = false;
        conservative_regrant_ = true;
    }
    return true;
}

void
ServerManager::telemetryTick(SimTime now)
{
    server_->advanceTo(now);
    sim::TelemetrySample sample;
    sample.when = now;
    sample.lcLoad = server_->load();
    sample.lcLatencyP95 = server_->latencyP95();
    sample.lcLatencyP99 = server_->latencyP99();
    sample.lcAlloc = server_->primaryAlloc();
    sample.beThroughput = server_->beThroughput();
    sample.beAlloc = server_->beAlloc();
    sample.power = server_->power();
    steady_.add(sample);
    if (config_.keepTelemetry)
        telemetry_.record(std::move(sample));
}

ServerRunResult
ServerManager::result() const
{
    ServerRunResult out;
    out.stats = server_->stats();
    out.powerUtilization =
        out.stats.averagePower() / server_->powerCap();
    out.averageSlack =
        slack_samples_
            ? slack_sum_ / static_cast<double>(slack_samples_)
            : 0.0;
    out.slackShortfallFraction =
        slack_samples_ ? static_cast<double>(slack_shortfalls_) /
                             static_cast<double>(slack_samples_)
                       : 0.0;
    out.faults = fault_stats_;
    out.faults.capOvershootJoules = out.stats.capOvershootJoules;
    out.faults.maxOvershoot =
        std::max(Watts{}, out.stats.maxPower - server_->powerCap());
    if (now_ > steady_.start())
        out.steady = steady_.finish(now_);
    out.telemetry.assign(telemetry_.all().begin(),
                         telemetry_.all().end());
    return out;
}

void
ServerManager::resetStats()
{
    server_->resetStats(now_);
    slack_sum_ = 0.0;
    slack_samples_ = 0;
    slack_shortfalls_ = 0;
    fault_stats_ = FaultRunStats{};
    steady_.restart(now_);
}

ServerRunResult
runServerScenario(const wl::LcApp& lc, const wl::BeApp* be,
                  Watts power_cap,
                  std::unique_ptr<PrimaryController> controller,
                  wl::LoadTrace trace, SimTime duration,
                  ServerManagerConfig config,
                  const fault::FaultPlan* faults)
{
    POCO_REQUIRE(duration > config.warmup,
                 "duration must exceed the warm-up period");
    ColocatedServer server(lc, be, power_cap);
    ServerManager manager(server, std::move(controller),
                          std::move(trace), config, faults);
    manager.runUntil(config.warmup);
    manager.resetStats();
    manager.runUntil(duration);
    server.advanceTo(manager.now());
    return manager.result();
}

std::vector<ServerRunResult>
runServerScenarios(std::vector<ServerScenario> scenarios,
                   runtime::ThreadPool* pool)
{
    for (const auto& s : scenarios) {
        POCO_REQUIRE(s.lc != nullptr, "scenario needs an LC app");
        POCO_REQUIRE(s.controller != nullptr,
                     "scenario needs a controller");
    }
    return runtime::parallelMap(
        pool, scenarios.size(), [&scenarios](std::size_t i) {
            ServerScenario& s = scenarios[i];
            return runServerScenario(*s.lc, s.be, s.powerCap,
                                     std::move(s.controller),
                                     std::move(s.trace), s.duration,
                                     s.config, s.faults);
        });
}

} // namespace poco::server
