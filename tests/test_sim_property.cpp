/**
 * @file
 * Randomized property tests for the simulation core: the power meter
 * against a brute-force integrator, and bit for bit against a forward
 * scan over every segment it was ever given.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/power_meter.hpp"
#include "util/rng.hpp"

namespace poco::sim
{
namespace
{

/** Brute-force reference for a piecewise-constant power signal. */
struct ReferenceSignal
{
    std::vector<std::pair<SimTime, Watts>> steps; // (time, level)

    Watts
    levelAt(SimTime t) const
    {
        Watts level;
        for (const auto& [when, watts] : steps) {
            if (when > t)
                break;
            level = watts;
        }
        return level;
    }

    double
    energy(SimTime from, SimTime to) const
    {
        // Integrate at microsecond granularity boundaries: sum over
        // the segments overlapping [from, to].
        double joules = 0.0;
        for (std::size_t i = 0; i < steps.size(); ++i) {
            const SimTime begin = std::max(steps[i].first, from);
            const SimTime end =
                std::min(i + 1 < steps.size() ? steps[i + 1].first
                                              : to,
                         to);
            if (end > begin)
                joules +=
                    steps[i].second.value() * toSeconds(end - begin);
        }
        return joules;
    }
};

/**
 * The window average as a forward scan over every segment the meter
 * was given, pruned or not, in the meter's own arithmetic. A segment
 * that ends at or before the window start adds nothing, so the
 * meter's answer must equal this one bit for bit.
 */
struct ForwardScan
{
    std::vector<std::pair<SimTime, Watts>> segments{{0, Watts{}}};

    void
    setPower(SimTime when, Watts watts)
    {
        if (watts != segments.back().second)
            segments.push_back({when, watts});
    }

    Watts
    average(SimTime now, SimTime window) const
    {
        const SimTime begin = std::max<SimTime>(0, now - window);
        if (now == begin)
            return segments.back().second;
        Joules joules;
        for (std::size_t i = 0; i < segments.size(); ++i) {
            const SimTime seg_start = segments[i].first;
            const SimTime seg_end = (i + 1 < segments.size())
                                        ? segments[i + 1].first
                                        : now;
            const SimTime lo = std::max(seg_start, begin);
            const SimTime hi = std::min(seg_end, now);
            if (hi > lo)
                joules += segments[i].second * simSeconds(hi - lo);
        }
        return joules / simSeconds(now - begin);
    }
};

class MeterProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MeterProperty, MatchesBruteForceIntegration)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 997 + 3);
    const SimTime retention = 2 * kSecond;
    PowerMeter meter(retention);
    ReferenceSignal reference;
    reference.steps.push_back({0, Watts{}});
    ForwardScan oracle;

    // Windows longer than the elapsed time reach before t = 0.
    const auto check = [&](SimTime at) {
        for (SimTime window : {50 * kMillisecond, 100 * kMillisecond,
                               kSecond, retention})
            EXPECT_EQ(meter.average(at, window).value(),
                      oracle.average(at, window).value())
                << "at " << at << " window " << window;
    };
    SimTime next_query = 0;
    const auto queryUntil = [&](SimTime until) {
        for (; next_query <= until; next_query += 10 * kMillisecond)
            check(next_query);
    };
    const auto step = [&](SimTime when, Watts level) {
        meter.setPower(when, level);
        oracle.setPower(when, level);
        reference.steps.push_back({when, level});
    };

    SimTime now = 0;
    for (int i = 0; i < 300; ++i) {
        now += rng.uniformInt(1, 200) * kMillisecond / 10;
        // Every tenth step lands on the query grid, so windows start
        // and end exactly at segment starts.
        if (i % 10 == 0)
            now = (now + 10 * kMillisecond - 1) / (10 * kMillisecond) *
                  (10 * kMillisecond);
        const Watts level{rng.uniform(0.0, 200.0)};
        queryUntil(now);
        // Every fifth step is preceded by a zero-length segment.
        if (i % 5 == 0)
            step(now, 0.5 * level);
        step(now, level);
        check(now);
    }
    const SimTime end = now + 500 * kMillisecond;
    queryUntil(end);

    for (SimTime window :
         {50 * kMillisecond, 100 * kMillisecond, kSecond}) {
        const double expected =
            reference.energy(end - window, end) / toSeconds(window);
        EXPECT_NEAR(meter.average(end, window).value(), expected, 1e-6)
            << "window " << window;
    }
    EXPECT_DOUBLE_EQ(meter.instantaneous().value(),
                     reference.levelAt(end).value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeterProperty,
                         ::testing::Range(1, 9));

} // namespace
} // namespace poco::sim
