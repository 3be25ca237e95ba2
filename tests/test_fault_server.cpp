/**
 * @file
 * Tests for server-level fault handling: the byte-identical
 * fault-free path, the watchdog's degradation ladder (degrade ->
 * clamp -> evict -> recover), and the naive manager's failure modes
 * under the same faults.
 */

#include <gtest/gtest.h>

#include <memory>

#include "fault/fault_plan.hpp"
#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "server/server_manager.hpp"
#include "util/check.hpp"
#include "wl/registry.hpp"

namespace poco::server
{
namespace
{

class FaultServerTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        set_ = new wl::AppSet(wl::defaultAppSet());
        model::Profiler profiler;
        model::UtilityFitter fitter;
        for (const auto& lc : set_->lc)
            models_.push_back(fitter.fit(profiler.profileLc(lc)));
    }

    static void
    TearDownTestSuite()
    {
        delete set_;
        set_ = nullptr;
        models_.clear();
    }

    const model::CobbDouglasUtility&
    modelOf(const std::string& name) const
    {
        for (std::size_t i = 0; i < set_->lc.size(); ++i)
            if (set_->lc[i].name() == name)
                return models_[i];
        poco::fatal("unknown app " + name);
    }

    enum class Brains
    {
        Pom,      ///< model-based, plans its grants under the cap
        Heracles, ///< power-unaware: the throttler is the only guard
    };

    ServerRunResult
    run(const fault::FaultPlan* plan, bool watchdog, Brains brains,
        wl::LoadTrace trace, SimTime duration)
    {
        const auto& lc = set_->lcByName("xapian");
        const auto& be = set_->beByName("graph");
        ServerManagerConfig config;
        config.watchdog.enabled = watchdog;
        std::unique_ptr<PrimaryController> controller;
        if (brains == Brains::Heracles)
            controller =
                std::make_unique<HeraclesController>(/*seed=*/5);
        else
            controller = std::make_unique<PomController>(
                modelOf("xapian"));
        return runServerScenario(lc, &be, lc.provisionedPower(),
                                 std::move(controller),
                                 std::move(trace), duration, config,
                                 plan);
    }

    static wl::AppSet* set_;
    static std::vector<model::CobbDouglasUtility> models_;
};

wl::AppSet* FaultServerTest::set_ = nullptr;
std::vector<model::CobbDouglasUtility> FaultServerTest::models_;

TEST_F(FaultServerTest, DisabledPlanIsByteIdentical)
{
    const auto trace = wl::LoadTrace::stepped({0.3, 0.8}, 60 * kSecond);
    const SimTime duration = 180 * kSecond;
    const auto bare = run(nullptr, true, Brains::Pom, trace, duration);
    const fault::FaultPlan empty;
    const auto with_empty =
        run(&empty, true, Brains::Pom, trace, duration);

    EXPECT_EQ(bare.stats.energyJoules, with_empty.stats.energyJoules);
    EXPECT_EQ(bare.stats.beWorkDone, with_empty.stats.beWorkDone);
    EXPECT_EQ(bare.stats.maxPower, with_empty.stats.maxPower);
    EXPECT_EQ(bare.stats.sloViolationTime,
              with_empty.stats.sloViolationTime);
    EXPECT_EQ(bare.stats.cappedTime, with_empty.stats.cappedTime);
    EXPECT_EQ(bare.averageSlack, with_empty.averageSlack);
    EXPECT_EQ(bare.faults.degradedTicks, 0);
    EXPECT_EQ(with_empty.faults.degradedTicks, 0);
}

TEST_F(FaultServerTest, StuckSensorWatchdogLimitsOvershoot)
{
    // The sensor freezes during the high-load epoch, where the
    // primary holds almost everything and the reading sits well
    // below the cap. When the load drops, the hand-off returns the
    // spare to the secondary at full speed; the naive manager's
    // throttler keeps releasing against the frozen low reading and
    // pins the server above its cap for the rest of the run. The
    // watchdog sees its own commands fail to move the meter, clamps
    // the secondary, and bounds the ground-truth cap damage.
    const auto trace = wl::LoadTrace::stepped({0.9, 0.2}, 90 * kSecond);
    const SimTime duration = 180 * kSecond;
    const auto windows = std::vector<fault::FaultWindow>{
        {70 * kSecond, 180 * kSecond, fault::FaultKind::SensorStuck,
         0.0, 0}};
    const auto plan = fault::FaultPlan::fromWindows(windows);

    const auto clean =
        run(nullptr, true, Brains::Heracles, trace, duration);
    const auto naive =
        run(&plan, false, Brains::Heracles, trace, duration);
    const auto guarded =
        run(&plan, true, Brains::Heracles, trace, duration);

    // The naive manager sustains the overshoot for tens of seconds;
    // the clean run at worst grazes the cap during the transition.
    EXPECT_GT(naive.faults.capOvershootJoules,
              clean.faults.capOvershootJoules + Joules{50.0});
    EXPECT_GT(naive.faults.maxOvershoot, Watts{1.0});
    EXPECT_LT(guarded.faults.capOvershootJoules,
              naive.faults.capOvershootJoules / 4.0);
    EXPECT_GT(guarded.faults.degradedTicks, 0);
    EXPECT_GE(guarded.faults.degradedEntries, 1);
}

TEST_F(FaultServerTest, DropoutDegradesAndRecovers)
{
    const auto trace = wl::LoadTrace::constant(0.5);
    const SimTime duration = 150 * kSecond;
    const auto windows = std::vector<fault::FaultWindow>{
        {70 * kSecond, 75 * kSecond, fault::FaultKind::SensorDropout,
         0.0, 0}};
    const auto plan = fault::FaultPlan::fromWindows(windows);

    const auto guarded =
        run(&plan, true, Brains::Pom, trace, duration);
    // 5 s of NaN readings at a 100 ms throttle period.
    EXPECT_GE(guarded.faults.invalidReadings, 40);
    EXPECT_GE(guarded.faults.degradedEntries, 1);
    EXPECT_GT(guarded.faults.degradedTicks, 0);
    // ...but the ladder must also climb back out: degraded time is
    // the dropout plus the recovery hysteresis, nowhere near the
    // whole run.
    EXPECT_LT(guarded.faults.degradedTicks, 300);
    EXPECT_GT(guarded.stats.beWorkDone, 0.0);
}

TEST_F(FaultServerTest, ActuatorStuckEscalatesToEviction)
{
    // DVFS writes are dropped from 80 s on. When the load drops at
    // 90 s the hand-off returns the spare to the secondary at full
    // speed and no throttle command can land any more — the naive
    // manager silently loses its only enforcement knob. The
    // watchdog sees unconfirmed commands, degrades, finds that even
    // the clamp does not land, and kills the secondary (eviction is
    // a job kill, not a DVFS write: it always lands).
    const auto trace = wl::LoadTrace::stepped({0.9, 0.2}, 90 * kSecond);
    const SimTime duration = 180 * kSecond;
    const auto windows = std::vector<fault::FaultWindow>{
        {80 * kSecond, 180 * kSecond,
         fault::FaultKind::ActuatorStuck, 0.0, 0}};
    const auto plan = fault::FaultPlan::fromWindows(windows);

    const auto naive =
        run(&plan, false, Brains::Heracles, trace, duration);
    const auto guarded =
        run(&plan, true, Brains::Heracles, trace, duration);

    EXPECT_GE(guarded.faults.evictions, 1);
    EXPECT_GT(guarded.faults.unconfirmedTicks, 0);
    EXPECT_GT(naive.faults.capOvershootJoules,
              guarded.faults.capOvershootJoules + Joules{50.0});
}

TEST_F(FaultServerTest, LoadSpikeSaturatesAtPeak)
{
    const auto trace = wl::LoadTrace::constant(0.8);
    const SimTime duration = 150 * kSecond;
    const auto windows = std::vector<fault::FaultWindow>{
        {70 * kSecond, 130 * kSecond, fault::FaultKind::LoadSpike,
         0.5, 0}};
    const auto plan = fault::FaultPlan::fromWindows(windows);

    const auto guarded =
        run(&plan, true, Brains::Pom, trace, duration);
    EXPECT_EQ(guarded.stats.elapsed, duration - 60 * kSecond);
    EXPECT_GE(guarded.averageSlack, -1.0);
    EXPECT_GT(guarded.stats.beWorkDone, 0.0);
}

TEST_F(FaultServerTest, FaultedRunsAreDeterministic)
{
    const auto trace = wl::LoadTrace::stepped({0.2, 0.9}, 90 * kSecond);
    const SimTime duration = 180 * kSecond;
    fault::FaultPlanConfig fc;
    fc.horizon = duration;
    fc.servers = 1;
    fc.sensorStuckRate = 2.0;
    fc.sensorDropoutRate = 2.0;
    fc.actuatorStuckRate = 2.0;
    fc.loadSpikeRate = 2.0;
    fc.seed = 7;
    const auto plan = fault::FaultPlan::generate(fc);
    ASSERT_TRUE(plan.enabled());

    const auto a = run(&plan, true, Brains::Pom, trace, duration);
    const auto b = run(&plan, true, Brains::Pom, trace, duration);
    EXPECT_EQ(a.stats.energyJoules, b.stats.energyJoules);
    EXPECT_EQ(a.stats.beWorkDone, b.stats.beWorkDone);
    EXPECT_EQ(a.faults.degradedTicks, b.faults.degradedTicks);
    EXPECT_EQ(a.faults.evictions, b.faults.evictions);
    EXPECT_EQ(a.faults.probes, b.faults.probes);
}

} // namespace
} // namespace poco::server
