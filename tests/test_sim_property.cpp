/**
 * @file
 * Randomized property tests for the simulation core: the power meter
 * against a brute-force integrator.
 */

#include <gtest/gtest.h>

#include <algorithm>
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

class MeterProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(MeterProperty, MatchesBruteForceIntegration)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 997 + 3);
    PowerMeter meter(/*retention=*/2 * kSecond);
    ReferenceSignal reference;
    reference.steps.push_back({0, Watts{}});

    SimTime now = 0;
    for (int i = 0; i < 300; ++i) {
        now += rng.uniformInt(1, 200) * kMillisecond / 10;
        const Watts level{rng.uniform(0.0, 200.0)};
        meter.setPower(now, level);
        reference.steps.push_back({now, level});
    }
    const SimTime end = now + 500 * kMillisecond;

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
