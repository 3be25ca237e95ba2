/**
 * @file
 * Discrete-event simulation core.
 *
 * A minimal calendar: events are (time, sequence, callback) triples
 * executed in time order, with the sequence number breaking ties so
 * same-timestamp events run in scheduling order (deterministic runs;
 * fault::FaultInjector relies on it to open its windows ahead of
 * same-time manager ticks). Controllers reschedule themselves to
 * form periodic loops.
 *
 * There is no cancellation: no simulation ever withdraws an event, so
 * the calendar keeps no id bookkeeping. Each event is moved out of
 * the heap before its callback runs, never copied.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/units.hpp"

namespace poco::sim
{

/** Time-ordered event calendar. */
class EventQueue
{
  public:
    using Callback = std::function<void(SimTime)>;

    /** Current simulated time (microseconds). */
    SimTime now() const { return now_; }

    /**
     * Schedule a callback at an absolute time.
     *
     * @param when Absolute time, must be >= now().
     * @param callback Invoked with the event's timestamp.
     */
    void schedule(SimTime when, Callback callback);

    /** Execute the next pending event. @return false if none remain. */
    bool runOne();

    /**
     * Run all events with timestamp <= deadline, then advance now() to
     * the deadline (so meters can integrate trailing intervals).
     *
     * @return Number of events executed.
     */
    std::size_t runUntil(SimTime deadline);

    /** Drain the calendar completely. @return events executed. */
    std::size_t runAll();

    bool empty() const { return heap_.empty(); }

  private:
    struct Event
    {
        SimTime when;
        std::uint64_t seq;
        Callback callback;
    };

    /** Heap order: the earliest (when, seq) pair sits at the front. */
    static bool
    later(const Event& a, const Event& b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    SimTime now_ = 0;
    std::uint64_t next_seq_ = 0;
    /** Binary heap under later() (std::push_heap / std::pop_heap). */
    std::vector<Event> heap_;
};

} // namespace poco::sim
