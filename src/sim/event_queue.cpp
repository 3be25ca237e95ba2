#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace poco::sim
{

void
EventQueue::schedule(SimTime when, Callback callback)
{
    POCO_REQUIRE(when >= now_, "cannot schedule an event in the past");
    heap_.push_back(Event{when, next_seq_++, std::move(callback)});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    // Move the event out before its callback runs: the callback may
    // schedule, which can reallocate the heap.
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    POCO_ASSERT(ev.when >= now_, "event queue went backwards");
    now_ = ev.when;
    ev.callback(now_);
    return true;
}

std::size_t
EventQueue::runUntil(SimTime deadline)
{
    std::size_t executed = 0;
    while (!heap_.empty() && heap_.front().when <= deadline) {
        runOne();
        ++executed;
    }
    // Even with no events left, time advances to the deadline so that
    // callers can integrate meters over the full interval.
    if (now_ < deadline)
        now_ = deadline;
    return executed;
}

std::size_t
EventQueue::runAll()
{
    std::size_t executed = 0;
    while (runOne())
        ++executed;
    return executed;
}

} // namespace poco::sim
