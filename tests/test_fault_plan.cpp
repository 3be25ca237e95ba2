/**
 * @file
 * Tests for deterministic fault-plan generation and the injector's
 * read/command shims.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "util/check.hpp"

namespace poco::fault
{
namespace
{

FaultPlanConfig
denseConfig()
{
    FaultPlanConfig config;
    config.horizon = 10 * kMinute;
    config.servers = 4;
    config.sensorStuckRate = 1.0;
    config.sensorDropoutRate = 1.0;
    config.sensorBiasRate = 1.0;
    config.actuatorStuckRate = 1.0;
    config.telemetryStaleRate = 1.0;
    config.crashRate = 0.5;
    config.loadSpikeRate = 1.0;
    config.seed = 42;
    return config;
}

TEST(FaultPlan, DefaultPlanIsDisabled)
{
    const FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    EXPECT_TRUE(plan.windows().empty());
    EXPECT_EQ(plan.horizon(), 0);
}

TEST(FaultPlan, ZeroRatesGenerateNothing)
{
    FaultPlanConfig config;
    config.horizon = 10 * kMinute;
    const FaultPlan plan = FaultPlan::generate(config);
    EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, GenerationIsDeterministic)
{
    const FaultPlan a = FaultPlan::generate(denseConfig());
    const FaultPlan b = FaultPlan::generate(denseConfig());
    ASSERT_EQ(a.windows().size(), b.windows().size());
    EXPECT_GT(a.windows().size(), 0u);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    for (std::size_t i = 0; i < a.windows().size(); ++i) {
        EXPECT_EQ(a.windows()[i].start, b.windows()[i].start);
        EXPECT_EQ(a.windows()[i].end, b.windows()[i].end);
        EXPECT_EQ(a.windows()[i].kind, b.windows()[i].kind);
        EXPECT_EQ(a.windows()[i].server, b.windows()[i].server);
    }
}

TEST(FaultPlan, SeedChangesSchedule)
{
    FaultPlanConfig other = denseConfig();
    other.seed = 43;
    EXPECT_NE(FaultPlan::generate(denseConfig()).fingerprint(),
              FaultPlan::generate(other).fingerprint());
}

TEST(FaultPlan, ServerStreamsAreIndependent)
{
    // Server 0's schedule must not depend on how many other servers
    // the plan covers — the same split-stream property the parallel
    // runtime relies on.
    FaultPlanConfig small = denseConfig();
    small.servers = 1;
    const FaultPlan a = FaultPlan::generate(small).forServer(0);
    const FaultPlan b =
        FaultPlan::generate(denseConfig()).forServer(0);
    ASSERT_EQ(a.windows().size(), b.windows().size());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(FaultPlan, WindowsSortedClippedAndPositive)
{
    const FaultPlan plan = FaultPlan::generate(denseConfig());
    const SimTime horizon = 10 * kMinute;
    SimTime prev = 0;
    for (const FaultWindow& w : plan.windows()) {
        EXPECT_GE(w.start, 0);
        EXPECT_LT(w.start, w.end);
        EXPECT_LE(w.end, horizon);
        EXPECT_GE(w.start, prev);
        prev = w.start;
    }
}

TEST(FaultPlan, FiltersSelectSubsets)
{
    const FaultPlan plan = FaultPlan::generate(denseConfig());
    const FaultPlan crashes = plan.ofKind(FaultKind::ServerCrash);
    for (const FaultWindow& w : crashes.windows())
        EXPECT_EQ(w.kind, FaultKind::ServerCrash);
    const FaultPlan one = plan.forServer(2);
    for (const FaultWindow& w : one.windows())
        EXPECT_TRUE(w.server == 2 || w.server == -1);
    std::size_t total = 0;
    for (int s = 0; s < 4; ++s)
        total += plan.forServer(s).windows().size();
    EXPECT_EQ(total, plan.windows().size());
}

TEST(FaultPlan, FingerprintSeesEveryField)
{
    std::vector<FaultWindow> windows{
        {1 * kSecond, 2 * kSecond, FaultKind::SensorBias, 0.25, 0}};
    const std::uint64_t base =
        FaultPlan::fromWindows(windows).fingerprint();
    windows[0].magnitude = 0.30;
    EXPECT_NE(FaultPlan::fromWindows(windows).fingerprint(), base);
}

TEST(FaultInjector, RejectsCrashWindows)
{
    std::vector<FaultWindow> windows{
        {0, 1 * kSecond, FaultKind::ServerCrash, 0.0, 0}};
    EXPECT_THROW(FaultInjector(FaultPlan::fromWindows(windows)),
                 poco::FatalError);
}

TEST(FaultInjector, RejectsWindowsStartingInThePast)
{
    std::vector<FaultWindow> windows{
        {-1, 1 * kSecond, FaultKind::SensorBias, 0.25, 0}};
    EXPECT_THROW(FaultInjector(FaultPlan::fromWindows(windows)),
                 poco::FatalError);
}

TEST(FaultInjector, DropoutDeliversNaN)
{
    sim::PowerMeter meter;
    meter.setPower(0, Watts{100.0});
    std::vector<FaultWindow> windows{{1 * kSecond, 2 * kSecond,
                                      FaultKind::SensorDropout, 0.0,
                                      0}};
    FaultInjector injector(FaultPlan::fromWindows(windows), &meter);
    injector.advanceTo(500 * kMillisecond);
    EXPECT_DOUBLE_EQ(injector.readPower(meter, 500 * kMillisecond,
                                        100 * kMillisecond).value(),
                     100.0);
    injector.advanceTo(1500 * kMillisecond);
    EXPECT_TRUE(std::isnan(
        injector.readPower(meter, 1500 * kMillisecond,
                           100 * kMillisecond)
            .value()));
    injector.advanceTo(2500 * kMillisecond);
    EXPECT_DOUBLE_EQ(injector.readPower(meter, 2500 * kMillisecond,
                                        100 * kMillisecond).value(),
                     100.0);
    EXPECT_EQ(injector.stats().faultedReads, 1);
}

TEST(FaultInjector, StuckFreezesWindowEntryValue)
{
    sim::PowerMeter meter;
    meter.setPower(0, Watts{80.0});
    std::vector<FaultWindow> windows{
        {1 * kSecond, 3 * kSecond, FaultKind::SensorStuck, 0.0, 0}};
    FaultInjector injector(FaultPlan::fromWindows(windows), &meter);
    injector.advanceTo(2 * kSecond);
    meter.setPower(2 * kSecond, Watts{140.0}); // the truth moves...
    injector.advanceTo(2900 * kMillisecond);
    EXPECT_DOUBLE_EQ(injector.readPower(meter, 2900 * kMillisecond,
                                        100 * kMillisecond).value(),
                     80.0); // ...the reading does not
    injector.advanceTo(3500 * kMillisecond);
    EXPECT_DOUBLE_EQ(injector.readPower(meter, 3500 * kMillisecond,
                                        100 * kMillisecond).value(),
                     140.0);
}

TEST(FaultInjector, SameTimeEdgesFollowPlanOrder)
{
    // Touching SensorStuck windows: at 2 s the first closes before
    // the second opens, so the second freezes the meter's 2 s value.
    // Opening it first would leave it to freeze the first read.
    sim::PowerMeter meter;
    meter.setPower(0, Watts{80.0});
    std::vector<FaultWindow> windows{
        {1 * kSecond, 2 * kSecond, FaultKind::SensorStuck, 0.0, 0},
        {2 * kSecond, 3 * kSecond, FaultKind::SensorStuck, 0.0, 0}};
    FaultInjector injector(FaultPlan::fromWindows(windows), &meter);
    injector.advanceTo(1 * kSecond);
    meter.setPower(1500 * kMillisecond, Watts{120.0});
    injector.advanceTo(2 * kSecond);
    meter.setPower(2200 * kMillisecond, Watts{150.0});
    EXPECT_DOUBLE_EQ(injector.readPower(meter, 2500 * kMillisecond,
                                        100 * kMillisecond).value(),
                     120.0);
}

TEST(FaultInjector, ActuatorFreezesFreqAndDutyOnly)
{
    std::vector<FaultWindow> windows{
        {0, 10 * kSecond, FaultKind::ActuatorStuck, 0.0, 0}};
    FaultInjector injector(FaultPlan::fromWindows(windows));
    injector.advanceTo(1 * kSecond);
    const sim::Allocation current{4, 4, GHz{2.2}, 1.0};
    const sim::Allocation throttle{4, 4, GHz{2.0}, 0.5};
    const sim::Allocation resize{2, 6, GHz{2.0}, 1.0};
    // A pure DVFS/duty write is dropped entirely...
    EXPECT_TRUE(injector.apply(current, throttle, 1 * kSecond) ==
                current);
    // ...a resize lands cores/ways but keeps the old freq/duty.
    const sim::Allocation landed =
        injector.apply(current, resize, 1 * kSecond);
    EXPECT_EQ(landed.cores, 2);
    EXPECT_EQ(landed.ways, 6);
    EXPECT_DOUBLE_EQ(landed.freq.value(), 2.2);
    EXPECT_DOUBLE_EQ(landed.dutyCycle, 1.0);
    EXPECT_EQ(injector.stats().suppressedCommands, 2);
    // Outside the window every write lands verbatim.
    injector.advanceTo(11 * kSecond);
    EXPECT_TRUE(injector.apply(current, throttle, 11 * kSecond) ==
                throttle);
    EXPECT_EQ(injector.stats().suppressedCommands, 2);
}

TEST(FaultPlan, FromWindowsMergesOverlapsToHull)
{
    // Two overlapping SensorBias windows on server 0 would
    // double-apply the bias; fromWindows coalesces them into their
    // hull, keeping the earliest window's magnitude.
    std::vector<FaultWindow> windows{
        {2 * kSecond, 6 * kSecond, FaultKind::SensorBias, 0.1, 0},
        {4 * kSecond, 9 * kSecond, FaultKind::SensorBias, 0.4, 0}};
    const FaultPlan plan = FaultPlan::fromWindows(windows);
    ASSERT_EQ(plan.windows().size(), 1u);
    EXPECT_EQ(plan.windows()[0].start, 2 * kSecond);
    EXPECT_EQ(plan.windows()[0].end, 9 * kSecond);
    EXPECT_DOUBLE_EQ(plan.windows()[0].magnitude, 0.1);

    // A fully-contained window must not extend the hull.
    windows.push_back(
        {3 * kSecond, 5 * kSecond, FaultKind::SensorBias, 0.9, 0});
    const FaultPlan nested = FaultPlan::fromWindows(windows);
    ASSERT_EQ(nested.windows().size(), 1u);
    EXPECT_EQ(nested.windows()[0].end, 9 * kSecond);

    // Merging is order-independent: fromWindows sorts first.
    std::swap(windows[0], windows[1]);
    EXPECT_EQ(FaultPlan::fromWindows(windows).fingerprint(),
              nested.fingerprint());
}

TEST(FaultPlan, FromWindowsKeepsDistinctKeysAndTouchingWindows)
{
    // Same span, different server or kind: no merge — the keys are
    // (server, kind) pairs, not time ranges.
    const FaultPlan keys = FaultPlan::fromWindows(
        {{2 * kSecond, 6 * kSecond, FaultKind::SensorBias, 0.1, 0},
         {2 * kSecond, 6 * kSecond, FaultKind::SensorBias, 0.1, 1},
         {2 * kSecond, 6 * kSecond, FaultKind::SensorStuck, 0.1, 0}});
    EXPECT_EQ(keys.windows().size(), 3u);

    // Touching windows ([a,b) then [b,c)) are distinct episodes —
    // back-to-back outages, not one long one.
    const FaultPlan touching = FaultPlan::fromWindows(
        {{2 * kSecond, 6 * kSecond, FaultKind::ServerCrash, 0.0, 1},
         {6 * kSecond, 8 * kSecond, FaultKind::ServerCrash, 0.0, 1}});
    ASSERT_EQ(touching.windows().size(), 2u);
    EXPECT_EQ(touching.windows()[0].end,
              touching.windows()[1].start);

    // Chained overlaps collapse transitively into one hull even
    // when a merge grows the kept window past a later start.
    const FaultPlan chain = FaultPlan::fromWindows(
        {{0, 4 * kSecond, FaultKind::MasterKill, 0.0, 0},
         {3 * kSecond, 10 * kSecond, FaultKind::MasterKill, 0.0, 0},
         {9 * kSecond, 12 * kSecond, FaultKind::MasterKill, 0.0, 0}});
    ASSERT_EQ(chain.windows().size(), 1u);
    EXPECT_EQ(chain.windows()[0].start, 0);
    EXPECT_EQ(chain.windows()[0].end, 12 * kSecond);
}

TEST(FaultInjector, RejectsControlPlaneKinds)
{
    // MasterKill / MasterPause / EventBurst target the control
    // plane, not a simulated server; handing them to the
    // server-level injector is a wiring bug, caught at construction.
    for (const FaultKind kind :
         {FaultKind::MasterKill, FaultKind::MasterPause,
          FaultKind::EventBurst}) {
        std::vector<FaultWindow> windows{
            {0, 5 * kSecond, kind, 1.0, 0}};
        EXPECT_THROW(FaultInjector(FaultPlan::fromWindows(windows)),
                     FatalError)
            << "kind " << static_cast<int>(kind);
    }
}

TEST(FaultInjector, LoadSpikeMultiplies)
{
    std::vector<FaultWindow> windows{
        {0, 5 * kSecond, FaultKind::LoadSpike, 0.5, 0}};
    FaultInjector injector(FaultPlan::fromWindows(windows));
    injector.advanceTo(1 * kSecond);
    EXPECT_DOUBLE_EQ(injector.loadFactor(1 * kSecond), 1.5);
    injector.advanceTo(6 * kSecond);
    EXPECT_DOUBLE_EQ(injector.loadFactor(6 * kSecond), 1.0);
}

} // namespace
} // namespace poco::fault
