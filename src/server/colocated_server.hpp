/**
 * @file
 * A simulated server running one latency-critical primary and any
 * number of best-effort secondaries.
 *
 * The paper's evaluation colocates a single secondary; Section V-G
 * sketches multiple secondaries via time-sharing or spatial sharing
 * of the spare resources as future work. The runtime supports both:
 * the secondary's application can be swapped at a job boundary
 * (time-sharing, see be_schedule.hpp) and several secondaries can
 * hold disjoint slices of the spare at once (spatial sharing, see
 * spatial_share.hpp).
 *
 * State is piecewise constant: it changes only when the offered load
 * or an allocation changes. Between changes the server integrates
 * energy, best-effort work, and SLO-compliance time, so long runs
 * are exact regardless of event spacing.
 *
 * The observables are cached the same way. The one refresh that
 * construction and every setter end with computes the primary's p99,
 * the total power and each slot's BE throughput from the ground-truth
 * models; the getters and the integrator only read those values, so
 * each returns bit for bit what a fresh evaluation through lc() and
 * beAppAt() would. Every setter integrates before it mutates, so the
 * integrator always sees the cache of the state it integrates.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/allocation.hpp"
#include "sim/power_meter.hpp"
#include "util/units.hpp"
#include "wl/be_app.hpp"
#include "wl/lc_app.hpp"

namespace poco::server
{

/** Aggregated run statistics (denominator: elapsed time). */
struct ServerStats
{
    SimTime elapsed = 0;
    Joules energyJoules;
    double beWorkDone = 0.0;      ///< integral of total BE throughput
    SimTime sloViolationTime = 0; ///< time with p99 above the SLO
    SimTime cappedTime = 0;       ///< time any BE app ran throttled
    Watts maxPower;
    /** Integral of max(0, power - cap) — ground-truth cap damage. */
    Joules capOvershootJoules;
    /**
     * Intervals of positive length integrated: one per 100 ms tick
     * under a ServerManager, whose state changes all land on ticks.
     */
    std::uint64_t intervals = 0;
    /** Worst primary p99 over those intervals (seconds). */
    double maxLatencyP99 = 0.0;

    Watts averagePower() const;
    Rps averageBeThroughput() const;
    double sloViolationFraction() const;
    double cappedFraction() const;
};

/** The shared-server runtime. */
class ColocatedServer
{
  public:
    /**
     * Single-secondary convenience constructor (the paper's setup).
     *
     * @param lc Ground-truth primary application (not owned).
     * @param be Ground-truth secondary, or nullptr for none (not
     *           owned).
     * @param power_cap Provisioned power capacity of the server.
     */
    ColocatedServer(const wl::LcApp& lc, const wl::BeApp* be,
                    Watts power_cap);

    /** Multi-secondary constructor (spatial sharing, Section V-G). */
    ColocatedServer(const wl::LcApp& lc,
                    std::vector<const wl::BeApp*> secondaries,
                    Watts power_cap);

    const wl::LcApp& lc() const { return *lc_; }
    const sim::ServerSpec& spec() const { return lc_->spec(); }
    Watts powerCap() const { return power_cap_; }

    /** Number of secondary slots (fixed at construction). */
    std::size_t secondaryCount() const { return secondaries_.size(); }

    /** First secondary (or nullptr) — the common single-BE view. */
    const wl::BeApp* be() const;
    /** Secondary application in slot @p i (may be nullptr). */
    const wl::BeApp* beAppAt(std::size_t i) const;

    /** Current offered load of the primary (requests/s). */
    Rps load() const { return load_; }
    const sim::Allocation& primaryAlloc() const { return primary_; }
    /** First secondary's allocation (empty default if no slots). */
    const sim::Allocation& beAlloc() const;
    const sim::Allocation& beAllocAt(std::size_t i) const;

    /**
     * Change the offered load at time @p now (integrates the elapsed
     * interval first). Load in requests/s, >= 0.
     */
    void setLoad(SimTime now, Rps load);

    /**
     * Install a new primary allocation. Secondaries' cores/ways are
     * clipped to the remaining spare if they would now overlap
     * (slot 0 is clipped last, i.e. has priority).
     */
    void setPrimaryAlloc(SimTime now, const sim::Allocation& alloc);

    /** Install slot 0's allocation (single-BE view). */
    void setBeAlloc(SimTime now, const sim::Allocation& alloc);

    /** Install slot @p i's allocation (must fit with all others). */
    void setBeAllocAt(SimTime now, std::size_t i,
                      const sim::Allocation& alloc);

    /**
     * Swap the application in slot @p i — a time-sharing job switch.
     * The slot's allocation is retained; pass nullptr to idle it.
     */
    void setBeApp(SimTime now, std::size_t i, const wl::BeApp* be);

    /** --- Observables (the app/telemetry instrumentation) --- */

    /** p99 latency of the primary at the current state (seconds). */
    double latencyP99() const;
    /** p95 latency of the primary at the current state (seconds). */
    double latencyP95() const;
    /** Tail-latency slack: 1 - p99/slo99. */
    double slack99() const;
    /** Current server power draw (watts). */
    Watts power() const;
    /** Total best-effort throughput across slots (units/s). */
    Rps beThroughput() const;
    /** Slot @p i's current throughput (units/s). */
    Rps beThroughputAt(std::size_t i) const;

    /** Windowed power meter (the socket meter the throttler reads). */
    const sim::PowerMeter& meter() const { return meter_; }

    /** Advance to @p now, integrating all accumulators. */
    void advanceTo(SimTime now);

    /** Statistics accumulated since construction (or resetStats). */
    const ServerStats& stats() const { return stats_; }

    /** Work done by slot @p i since the last resetStats. */
    double beWorkAt(std::size_t i) const;

    /** Restart accumulation (e.g. after a warm-up phase). */
    void resetStats(SimTime now);

  private:
    struct Secondary
    {
        const wl::BeApp* app = nullptr;
        sim::Allocation alloc;
        double workDone = 0.0;
        /** Throughput at the current state (cached by refresh). */
        Rps throughput;
    };

    void init(Watts power_cap);
    void integrate(SimTime now);
    /** Recompute the cached observables and feed the meter. */
    void refresh(SimTime now);
    /** Total cores/ways held by secondaries other than slot skip. */
    void otherUsage(std::size_t skip, int& cores, int& ways) const;

    const wl::LcApp* lc_;
    std::vector<Secondary> secondaries_;
    Watts power_cap_;

    Rps load_;
    sim::Allocation primary_;
    sim::Allocation empty_alloc_;

    /** Observables at the current state (cached by refresh). */
    double p99_ = 0.0;
    Watts power_;

    sim::PowerMeter meter_;
    SimTime last_integrated_ = 0;
    ServerStats stats_;
};

} // namespace poco::server
