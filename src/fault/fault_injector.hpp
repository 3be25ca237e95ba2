/**
 * @file
 * Fault delivery onto a server simulation (the shim half of
 * poco::fault).
 *
 * The injector sits between the server manager and the hardware it
 * believes it is talking to: power-meter reads pass through
 * readPower(), which falsifies them while a sensor window is active,
 * and allocation writes pass through apply(), which models a stuck
 * DVFS/duty driver that silently drops the frequency/duty half of a
 * write while an actuator window is active. The owner delivers the
 * window edges with advanceTo(): the server manager calls it at the
 * head of each 100 ms tick, so an edge takes effect ahead of the
 * loops of the tick at or after it. A manager built without a fault
 * plan has no injector, and its fault-free path is byte-identical to
 * a build without this subsystem.
 */

#pragma once

#include "fault/fault_plan.hpp"
#include "sim/allocation.hpp"
#include "sim/power_meter.hpp"
#include "util/units.hpp"

namespace poco::fault
{

/** What the injector actually did to a run (reporting only). */
struct InjectorStats
{
    /** Reads answered while any sensor-fault window was active. */
    int faultedReads = 0;
    /** Reads answered from the stale-telemetry path. */
    int staleReads = 0;
    /** Writes whose freq/duty half the actuator fault dropped. */
    int suppressedCommands = 0;
};

/**
 * Delivers one server's FaultPlan into its simulation.
 *
 * The injector is single-server: build it from plan.forServer(j).
 * It is not thread-safe; each server manager owns its own.
 */
class FaultInjector
{
  public:
    /**
     * Every window must start at or after t = 0. The optional
     * @p meter (borrowed) lets SensorStuck windows freeze the reading
     * at the value the sensor held when the fault hit; without it
     * the first read inside the window is frozen instead.
     */
    explicit FaultInjector(FaultPlan plan,
                           const sim::PowerMeter* meter = nullptr);

    /**
     * Open and close every window whose edge is at or before @p now,
     * in (time, plan order, start before end) order.
     */
    void advanceTo(SimTime now);

    const FaultPlan& plan() const { return plan_; }

    /**
     * The power reading the manager sees: the meter's trailing-window
     * average, distorted by any active sensor fault. Active-window
     * priority: dropout > stuck > stale > bias.
     */
    Watts readPower(const sim::PowerMeter& meter, SimTime now,
                    SimTime window);

    /**
     * The allocation that actually lands when the manager installs
     * @p next over @p current. While an ActuatorStuck window is
     * active the DVFS/duty driver ignores writes: frequency and duty
     * keep their current values, while scheduler-side cores/ways
     * changes (and evictions, which are job kills) still land.
     */
    sim::Allocation apply(const sim::Allocation& current,
                          const sim::Allocation& next, SimTime now);

    /** Offered-load multiplier from active LoadSpike windows. */
    double loadFactor(SimTime now) const;

    const InjectorStats& stats() const { return stats_; }

  private:
    /** One window start or end. */
    struct Edge
    {
        SimTime when;
        std::size_t window; ///< index into plan_.windows()
        bool opens;
    };

    const FaultWindow* active(FaultKind kind, SimTime now) const;
    void activate(const FaultWindow& window);
    void deactivate(const FaultWindow& window);

    FaultPlan plan_;
    const sim::PowerMeter* meter_;
    /** Every window edge, in delivery order. */
    std::vector<Edge> edges_;
    /** The first edge advanceTo() has not delivered yet. */
    std::size_t next_edge_ = 0;
    /** Windows currently open (updated by advanceTo()). */
    std::vector<const FaultWindow*> active_;
    /** Frozen sensor value for the open SensorStuck window. */
    const FaultWindow* stuck_window_ = nullptr;
    Watts stuck_value_;
    bool stuck_captured_ = false;
    /** Last value actually delivered (the stale-telemetry replay). */
    Watts last_delivered_;
    bool delivered_any_ = false;
    InjectorStats stats_;
};

} // namespace poco::fault
