/**
 * @file
 * Tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hpp"
#include "util/check.hpp"

namespace poco::sim
{
namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](SimTime) { order.push_back(3); });
    q.schedule(10, [&](SimTime) { order.push_back(1); });
    q.schedule(20, [&](SimTime) { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, TieBreaksByScheduleOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&](SimTime) { order.push_back(1); });
    q.schedule(5, [&](SimTime) { order.push_back(2); });
    q.schedule(5, [&](SimTime) { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CallbackSeesEventTime)
{
    EventQueue q;
    SimTime seen = -1;
    q.schedule(42, [&](SimTime t) { seen = t; });
    q.runOne();
    EXPECT_EQ(seen, 42);
    EXPECT_EQ(q.now(), 42);
}

TEST(EventQueue, RejectsPastEvents)
{
    EventQueue q;
    q.schedule(10, [](SimTime) {});
    q.runOne();
    EXPECT_THROW(q.schedule(5, [](SimTime) {}), poco::FatalError);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue q;
    std::vector<SimTime> fired;
    for (SimTime t : {10, 20, 30, 40})
        q.schedule(t, [&](SimTime when) { fired.push_back(when); });
    const std::size_t n = q.runUntil(25);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
    // Time advances to the deadline even with pending later events.
    EXPECT_EQ(q.now(), 25);
    q.runAll();
    EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.runUntil(1000), 0u);
    EXPECT_EQ(q.now(), 1000);
}

TEST(EventQueue, SelfReschedulingLoop)
{
    EventQueue q;
    int ticks = 0;
    std::function<void(SimTime)> tick = [&](SimTime) {
        ++ticks;
        if (ticks < 5)
            q.schedule(q.now() + 10, tick);
    };
    q.schedule(0, tick);
    q.runAll();
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(q.now(), 40);
}

TEST(EventQueue, EventsScheduledAtCurrentTimeRun)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&](SimTime t) {
        q.schedule(t, [&](SimTime) { ++fired; }); // same timestamp
    });
    q.runAll();
    EXPECT_EQ(fired, 1);
}

} // namespace
} // namespace poco::sim
