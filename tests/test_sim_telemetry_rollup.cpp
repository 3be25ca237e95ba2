/**
 * @file
 * Telemetry epoch rollups: the zero-order-hold fold, the fixed-order
 * combine, and the epoch aggregator.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/telemetry_rollup.hpp"
#include "util/check.hpp"
#include "util/units.hpp"

namespace poco::sim
{
namespace
{

std::vector<TelemetrySample>
twoStepTrace()
{
    // 100 W / 40 rps until t=10 s, then 200 W / 80 rps.
    TelemetrySample a;
    a.when = 0;
    a.power = Watts{100.0};
    a.beThroughput = Rps{40.0};
    a.lcLatencyP99 = 0.002;
    TelemetrySample b;
    b.when = 10 * kSecond;
    b.power = Watts{200.0};
    b.beThroughput = Rps{80.0};
    b.lcLatencyP99 = 0.005;
    return {a, b};
}

TEST(FoldTelemetry, IntegratesZeroOrderHoldOverTheWindow)
{
    // Window [5 s, 15 s): 5 s at 100 W, 5 s at 200 W.
    const auto rollup = foldTelemetry(twoStepTrace(), Watts{150.0},
                                      5 * kSecond, 15 * kSecond);
    EXPECT_EQ(rollup.samples, 2u);
    EXPECT_DOUBLE_EQ(rollup.energy.value(), 100.0 * 5 + 200.0 * 5);
    EXPECT_DOUBLE_EQ(rollup.meanPower.value(), 150.0);
    EXPECT_DOUBLE_EQ(rollup.meanBeThroughput.value(),
                     (40.0 * 5 + 80.0 * 5) / 10.0);
    // Only the 200 W span exceeds the 150 W cap.
    EXPECT_DOUBLE_EQ(rollup.capOvershoot.value(), 50.0 * 5);
    EXPECT_DOUBLE_EQ(rollup.maxLatencyP99, 0.005);
}

TEST(FoldTelemetry, SampleBeforeTheWindowStillHolds)
{
    // The last sample at or before the window open governs it:
    // nothing changes inside [20 s, 30 s), so 200 W holds throughout.
    const auto rollup = foldTelemetry(twoStepTrace(), Watts{250.0},
                                      20 * kSecond, 30 * kSecond);
    EXPECT_EQ(rollup.samples, 1u);
    EXPECT_DOUBLE_EQ(rollup.energy.value(), 200.0 * 10);
    EXPECT_DOUBLE_EQ(rollup.capOvershoot.value(), 0.0);
}

TEST(FoldTelemetry, EmptySamplesFoldToZero)
{
    const auto rollup = foldTelemetry({}, Watts{100.0}, 0,
                                      10 * kSecond);
    EXPECT_EQ(rollup.samples, 0u);
    EXPECT_EQ(rollup.energy, Joules{});
    EXPECT_EQ(rollup.meanPower, Watts{});
}

TEST(FoldTelemetry, RejectsAnEmptyWindow)
{
    EXPECT_THROW(foldTelemetry({}, Watts{}, kSecond, kSecond),
                 FatalError);
}

TEST(EpochRollup, CombineSumsMembersAndMaxesLatency)
{
    EpochRollup a;
    a.start = 0;
    a.end = 10 * kSecond;
    a.samples = 3;
    a.meanPower = Watts{100.0};
    a.meanBeThroughput = Rps{40.0};
    a.energy = Joules{1000.0};
    a.capOvershoot = Joules{5.0};
    a.maxLatencyP99 = 0.004;

    EpochRollup b = a;
    b.meanPower = Watts{60.0};
    b.maxLatencyP99 = 0.009;

    EpochRollup total;
    total += a;
    total += b;
    EXPECT_EQ(total.samples, 6u);
    EXPECT_DOUBLE_EQ(total.meanPower.value(), 160.0);
    EXPECT_DOUBLE_EQ(total.energy.value(), 2000.0);
    EXPECT_DOUBLE_EQ(total.maxLatencyP99, 0.009);
    EXPECT_EQ(total.start, a.start);
    EXPECT_EQ(total.end, a.end);
}

TEST(TelemetryAggregator, ValidatesTheClusterMapping)
{
    EXPECT_THROW(TelemetryAggregator({0, 2}, 2),
                 FatalError);
    EXPECT_THROW(TelemetryAggregator({}, 0),
                 FatalError);
}

TEST(TelemetryAggregator, FoldsServersIntoClustersAndFleet)
{
    // Servers 0,1 -> cluster 0; server 2 -> cluster 1.
    TelemetryAggregator agg({0, 0, 1}, 2);
    agg.add(0, twoStepTrace(), Watts{150.0});
    agg.add(1, twoStepTrace(), Watts{150.0});
    agg.add(2, twoStepTrace(), Watts{250.0});
    agg.sealEpoch(5 * kSecond, 15 * kSecond);

    const auto epochs = agg.drain();
    ASSERT_EQ(epochs.size(), 1u);
    const auto& fold = epochs[0];
    ASSERT_EQ(fold.clusters.size(), 2u);
    EXPECT_DOUBLE_EQ(fold.clusters[0].energy.value(), 2 * 1500.0);
    EXPECT_DOUBLE_EQ(fold.clusters[1].energy.value(), 1500.0);
    EXPECT_DOUBLE_EQ(fold.clusters[0].capOvershoot.value(),
                     2 * 250.0);
    EXPECT_DOUBLE_EQ(fold.clusters[1].capOvershoot.value(), 0.0);
    EXPECT_DOUBLE_EQ(fold.fleet.energy.value(), 3 * 1500.0);
    EXPECT_EQ(fold.fleet.samples, 6u);
}

TEST(TelemetryAggregator, DoubleBufferSealsIndependentEpochs)
{
    TelemetryAggregator agg({0}, 1);
    agg.add(0, twoStepTrace(), Watts{150.0});
    agg.sealEpoch(0, 10 * kSecond);
    // Second epoch: the front buffer restarted empty.
    agg.sealEpoch(0, 10 * kSecond);

    const auto epochs = agg.drain();
    ASSERT_EQ(epochs.size(), 2u);
    EXPECT_EQ(epochs[0].fleet.samples, 1u);
    EXPECT_EQ(epochs[1].fleet.samples, 0u);
}

} // namespace
} // namespace poco::sim
