/**
 * @file
 * Windowed power meter.
 *
 * Plays the role of the paper's socket power meter: the server's
 * instantaneous power is a step function of time (it changes only when
 * an allocation or load changes), and managers query the average draw
 * over a trailing window (the BE throttler samples every 100 ms). It
 * keeps only the retained history those window queries read, and a
 * query sums only the segments its window overlaps; the server's
 * energy total is ColocatedServer's own integral.
 */

#pragma once

#include <deque>

#include "util/units.hpp"

namespace poco::sim
{

/** Windowed averages of a piecewise-constant power signal. */
class PowerMeter
{
  public:
    /**
     * @param retention How much history to keep for window queries,
     *                  and so the longest window. Older segments are
     *                  dropped.
     */
    explicit PowerMeter(SimTime retention = 10 * kSecond);

    /**
     * Record that power changed to @p watts at time @p when.
     * Times must be non-decreasing across calls.
     */
    void setPower(SimTime when, Watts watts);

    /** The most recently recorded instantaneous power. */
    Watts instantaneous() const { return current_; }

    /**
     * Average power over [now - window, now], or over [0, now] while
     * now < window. Costs O(segments the window overlaps).
     *
     * @param now Current time; must be >= the last setPower() time.
     * @param window Length of the trailing window; must be > 0 and at
     *        most the retention, since dropped history would read as
     *        0 W.
     */
    Watts average(SimTime now, SimTime window) const;

  private:
    struct Segment
    {
        SimTime start;
        Watts watts;
    };

    void prune(SimTime now);

    SimTime retention_;
    Watts current_;
    SimTime last_change_ = 0;
    std::deque<Segment> history_;
};

} // namespace poco::sim
