/**
 * @file
 * Tests for the power model and the windowed power meter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sim/power_meter.hpp"
#include "sim/power_model.hpp"
#include "sim/server_spec.hpp"
#include "util/check.hpp"

namespace poco::sim
{
namespace
{

PowerDraw
makeDraw(int cores, int ways, GHz freq = GHz{2.2}, double duty = 1.0,
         double util = 1.0)
{
    PowerDraw draw;
    draw.intensity.corePeak = Watts{6.0};
    draw.intensity.wayPower = Watts{2.0};
    draw.intensity.wayActivityShare = 0.5;
    draw.alloc = Allocation{cores, ways, freq, duty};
    draw.utilization = util;
    return draw;
}

TEST(PowerModel, FullBlastMatchesClosedForm)
{
    const PowerModel model(xeonE5_2650());
    // 12 cores * 6 W + 20 ways * 2 W = 112 W on top of static.
    EXPECT_NEAR(model.appPower(makeDraw(12, 20)).value(), 112.0, 1e-9);
    EXPECT_NEAR(model.serverPower({makeDraw(12, 20)}).value(), 162.0,
                1e-9);
}

TEST(PowerModel, EmptyAllocationDrawsNothing)
{
    const PowerModel model(xeonE5_2650());
    EXPECT_DOUBLE_EQ(model.appPower(makeDraw(0, 0)).value(), 0.0);
    EXPECT_DOUBLE_EQ(model.serverPower({}).value(), 50.0); // idle only
}

TEST(PowerModel, FrequencyScalingIsSuperlinear)
{
    const PowerModel model(xeonE5_2650());
    const Watts full = model.appPower(makeDraw(4, 4, GHz{2.2}));
    const Watts half_freq = model.appPower(makeDraw(4, 4, GHz{1.2}));
    // Way power (8 W) is frequency independent; core power scales by
    // (1.2/2.2)^2.4 ~ 0.233.
    const double core_scale = std::pow(1.2 / 2.2, 2.4);
    EXPECT_NEAR(half_freq.value(), 24.0 * core_scale + 8.0, 1e-9);
    EXPECT_LT(half_freq, full);
}

TEST(PowerModel, DutyCycleScalesActivity)
{
    const PowerModel model(xeonE5_2650());
    const Watts full = model.appPower(makeDraw(4, 4, GHz{2.2}, 1.0));
    const Watts half = model.appPower(makeDraw(4, 4, GHz{2.2}, 0.5));
    // Core power halves; way power has a 50% activity share.
    EXPECT_NEAR(half.value(), 12.0 + 8.0 * 0.75, 1e-9);
    EXPECT_LT(half, full);
}

TEST(PowerModel, UtilizationScalesCorePower)
{
    const PowerModel model(xeonE5_2650());
    const Watts idle_app =
        model.appPower(makeDraw(4, 4, GHz{2.2}, 1.0, 0.0));
    // Only the static part of the way power remains.
    EXPECT_NEAR(idle_app.value(), 8.0 * 0.5, 1e-9);
}

TEST(PowerModel, StallFactorReducesCorePowerWhenWaysScarce)
{
    const PowerModel model(xeonE5_2650());
    PowerDraw starved = makeDraw(4, 2);
    starved.intensity.stallFactor = 0.2;
    PowerDraw sated = makeDraw(4, 20);
    sated.intensity.stallFactor = 0.2;
    const Watts p_starved = model.appPower(starved);
    const Watts p_sated = model.appPower(sated);
    // Core contribution of the starved app must be below 24 W.
    EXPECT_LT(p_starved.value() - 2.0 * 2.0, 24.0);
    // With all ways the stall term vanishes.
    EXPECT_NEAR(p_sated.value(), 24.0 + 40.0, 1e-9);
}

TEST(PowerModel, MonotoneInEveryKnob)
{
    const PowerModel model(xeonE5_2650());
    Watts prev;
    for (int c = 1; c <= 12; ++c) {
        const Watts p = model.appPower(makeDraw(c, 10));
        EXPECT_GT(p, prev);
        prev = p;
    }
    prev = Watts{};
    for (int w = 1; w <= 20; ++w) {
        const Watts p = model.appPower(makeDraw(6, w));
        EXPECT_GT(p, prev);
        prev = p;
    }
    const ServerSpec spec = xeonE5_2650();
    prev = Watts{};
    for (GHz f = spec.freqMin; f <= spec.freqMax + GHz{1e-9};
         f += spec.freqStep) {
        const Watts p = model.appPower(makeDraw(6, 10, f));
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(PowerModel, AggregateCapacityChecked)
{
    const PowerModel model(xeonE5_2650());
    EXPECT_THROW(model.serverPower({makeDraw(8, 10), makeDraw(8, 10)}),
                 poco::FatalError);
    EXPECT_NO_THROW(
        model.serverPower({makeDraw(6, 10), makeDraw(6, 10)}));
}

TEST(PowerModel, ValidationOfInputs)
{
    const PowerModel model(xeonE5_2650());
    PowerDraw bad = makeDraw(4, 4);
    bad.utilization = 1.5;
    EXPECT_THROW(model.appPower(bad), poco::FatalError);
    PowerDraw too_many = makeDraw(13, 4);
    EXPECT_THROW(model.appPower(too_many), poco::FatalError);
}

TEST(PowerMeter, AverageOfStepSignal)
{
    PowerMeter meter;
    meter.setPower(0, Watts{100.0});
    meter.setPower(kSecond, Watts{200.0});
    // Window [0.5s, 1.5s]: half at 100, half at 200.
    EXPECT_NEAR(meter.average(kSecond + 500 * kMillisecond, kSecond).value(),
                150.0, 1e-9);
    EXPECT_DOUBLE_EQ(meter.instantaneous().value(), 200.0);
}

TEST(PowerMeter, AverageOverLeadingZeroHistory)
{
    PowerMeter meter;
    meter.setPower(2 * kSecond, Watts{100.0});
    // Window [1s, 3s]: half 0, half 100.
    EXPECT_NEAR(meter.average(3 * kSecond, 2 * kSecond).value(), 50.0, 1e-9);
}

TEST(PowerMeter, AverageSurvivesPruning)
{
    PowerMeter meter(/*retention=*/kSecond);
    Watts level{10.0};
    for (SimTime t = 0; t < 100 * kSecond; t += kSecond) {
        meter.setPower(t, level);
        level = (level == Watts{10.0}) ? Watts{20.0} : Watts{10.0};
    }
    // Window query still works on the retained tail (the last
    // segment, set at t=99 s, is 20 W).
    EXPECT_NEAR(meter.average(100 * kSecond, kSecond).value(), 20.0, 1e-9);
}

TEST(PowerMeter, WindowIsAtMostTheRetention)
{
    // 100 and 120 W alternating every 100 ms for 30 s. Pruning keeps
    // the segment that covers now - retention, so a window of exactly
    // the retention is exact; a longer one would read the dropped
    // history as 0 W, so it throws.
    PowerMeter meter; // 10 s retention
    for (int i = 0; i < 300; ++i)
        meter.setPower(i * 100 * kMillisecond,
                       Watts{i % 2 == 0 ? 100.0 : 120.0});
    const SimTime now = 30 * kSecond;
    EXPECT_NEAR(meter.average(now, 5 * kSecond).value(), 110.0, 1e-9);
    EXPECT_NEAR(meter.average(now, 10 * kSecond).value(), 110.0, 1e-9);
    EXPECT_THROW(meter.average(now, 10 * kSecond + 1), poco::FatalError);
    EXPECT_THROW(meter.average(now, 20 * kSecond), poco::FatalError);
}

TEST(PowerMeter, RejectsNonFiniteReadings)
{
    PowerMeter meter;
    meter.setPower(0, Watts{42.0});
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(meter.setPower(kSecond, Watts{nan}), poco::FatalError);
    EXPECT_THROW(meter.setPower(kSecond, Watts{inf}), poco::FatalError);
    EXPECT_THROW(meter.setPower(kSecond, -Watts{inf}), poco::FatalError);
    // A rejected update must not corrupt the recorded history.
    EXPECT_DOUBLE_EQ(meter.instantaneous().value(), 42.0);
    meter.setPower(kSecond, Watts{50.0});
    EXPECT_DOUBLE_EQ(meter.instantaneous().value(), 50.0);
}

TEST(PowerMeter, RejectsTimeTravel)
{
    PowerMeter meter;
    meter.setPower(10 * kSecond, Watts{42.0});
    EXPECT_THROW(meter.setPower(5 * kSecond, Watts{10.0}), poco::FatalError);
    EXPECT_THROW(meter.average(5 * kSecond, kSecond).value(),
                 poco::FatalError);
    EXPECT_THROW(meter.setPower(11 * kSecond, Watts{-1.0}),
                 poco::FatalError);
}

TEST(ServerSpec, FrequencyGrid)
{
    const ServerSpec spec = xeonE5_2650();
    EXPECT_EQ(spec.freqSteps(), 11);
    EXPECT_NEAR(spec.clampFreq(GHz{2.34}).value(), 2.2, 1e-9);
    EXPECT_NEAR(spec.clampFreq(GHz{0.9}).value(), 1.2, 1e-9);
    EXPECT_NEAR(spec.clampFreq(GHz{1.74}).value(), 1.7, 1e-9);
    EXPECT_NEAR(spec.stepDown(GHz{1.2}).value(), 1.2, 1e-9);
    EXPECT_NEAR(spec.stepUp(GHz{2.2}).value(), 2.2, 1e-9);
    EXPECT_NEAR(spec.stepDown(GHz{2.0}).value(), 1.9, 1e-9);
}

TEST(ServerSpec, ValidationCatchesNonsense)
{
    ServerSpec spec = xeonE5_2650();
    spec.cores = 0;
    EXPECT_THROW(spec.validate(), poco::FatalError);
    spec = xeonE5_2650();
    spec.freqMin = GHz{2.4};
    EXPECT_THROW(spec.validate(), poco::FatalError);
}

} // namespace
} // namespace poco::sim
