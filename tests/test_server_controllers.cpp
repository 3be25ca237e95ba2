/**
 * @file
 * Tests for the primary controllers and the managed-server runner:
 * SLO maintenance, power-cap enforcement, and the POM-vs-baseline
 * power ordering (the paper's server-level claims).
 */

#include <gtest/gtest.h>

#include <memory>

#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "server/server_manager.hpp"
#include "util/check.hpp"
#include "wl/registry.hpp"

namespace poco::server
{
namespace
{

class ControllerTest : public ::testing::Test
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

    static wl::AppSet* set_;
    static std::vector<model::CobbDouglasUtility> models_;
};

wl::AppSet* ControllerTest::set_ = nullptr;
std::vector<model::CobbDouglasUtility> ControllerTest::models_;

TEST_F(ControllerTest, PomMaintainsSlackAcrossLoadSweep)
{
    for (const auto& lc : set_->lc) {
        const auto result = runServerScenario(
            lc, nullptr, lc.provisionedPower(),
            std::make_unique<PomController>(modelOf(lc.name())),
            wl::LoadTrace::stepped(
                {0.1, 0.3, 0.5, 0.7, 0.9, 0.6, 0.2}, 60 * kSecond),
            8 * 60 * kSecond);
        EXPECT_LT(result.stats.sloViolationFraction(), 0.01)
            << lc.name();
        EXPECT_GT(result.averageSlack, 0.08) << lc.name();
    }
}

TEST_F(ControllerTest, HeraclesMaintainsSloWithinTolerance)
{
    for (const auto& lc : set_->lc) {
        const auto result = runServerScenario(
            lc, nullptr, lc.provisionedPower(),
            std::make_unique<HeraclesController>(17),
            wl::LoadTrace::stepped(
                {0.1, 0.3, 0.5, 0.7, 0.9, 0.6, 0.2}, 60 * kSecond),
            8 * 60 * kSecond);
        // A reactive, model-free baseline incurs brief transients at
        // load steps; they must stay rare.
        EXPECT_LT(result.stats.sloViolationFraction(), 0.06)
            << lc.name();
    }
}

TEST_F(ControllerTest, PomTracksMinPowerExpansionPath)
{
    // Running alone (no BE), POM's average power must not exceed the
    // baseline's: that is its entire purpose.
    for (const auto& lc : set_->lc) {
        const auto trace = wl::LoadTrace::stepped(
            {0.2, 0.4, 0.6, 0.8}, 90 * kSecond);
        const auto pom = runServerScenario(
            lc, nullptr, lc.provisionedPower(),
            std::make_unique<PomController>(modelOf(lc.name())),
            trace, 7 * 90 * kSecond);
        const auto heracles = runServerScenario(
            lc, nullptr, lc.provisionedPower(),
            std::make_unique<HeraclesController>(23),
            trace, 7 * 90 * kSecond);
        EXPECT_LE(pom.stats.averagePower(),
                  heracles.stats.averagePower() * 1.02)
            << lc.name();
    }
}

TEST_F(ControllerTest, CapRespectedUnderColocation)
{
    // With a co-runner and the 100 ms throttler, the long-run average
    // power must stay at or below the provisioned capacity.
    for (const auto& lc : set_->lc) {
        for (const auto& be : set_->be) {
            const auto result = runServerScenario(
                lc, &be, lc.provisionedPower(),
                std::make_unique<PomController>(modelOf(lc.name())),
                wl::LoadTrace::constant(0.3), 240 * kSecond);
            EXPECT_LE(result.stats.averagePower(),
                      lc.provisionedPower() * 1.01)
                << lc.name() << "+" << be.name();
        }
    }
}

TEST_F(ControllerTest, PrimaryUnaffectedByCoRunner)
{
    // Hardware partitioning isolates the primary: its slack with a
    // co-runner matches its slack alone.
    const auto& lc = set_->lcByName("xapian");
    const auto& be = set_->beByName("graph");
    const auto trace = wl::LoadTrace::constant(0.5);
    const auto alone = runServerScenario(
        lc, nullptr, lc.provisionedPower(),
        std::make_unique<PomController>(modelOf("xapian")), trace,
        180 * kSecond);
    const auto shared = runServerScenario(
        lc, &be, lc.provisionedPower(),
        std::make_unique<PomController>(modelOf("xapian")), trace,
        180 * kSecond);
    EXPECT_NEAR(alone.averageSlack, shared.averageSlack, 1e-9);
    EXPECT_EQ(shared.stats.sloViolationTime, 0);
}

TEST_F(ControllerTest, BeThroughputRisesWhenPrimaryLoadFalls)
{
    const auto& lc = set_->lcByName("sphinx");
    const auto& be = set_->beByName("graph");
    double prev = -1.0;
    for (double load : {0.9, 0.5, 0.1}) {
        const auto result = runServerScenario(
            lc, &be, lc.provisionedPower(),
            std::make_unique<PomController>(modelOf("sphinx")),
            wl::LoadTrace::constant(load), 240 * kSecond);
        const double thr = result.stats.averageBeThroughput().value();
        EXPECT_GT(thr, prev) << "load " << load;
        prev = thr;
    }
}

TEST_F(ControllerTest, ThrottlingEngagesUnderTightCap)
{
    // Choke the cap below the uncapped draw: the BE app must get
    // throttled (capped time > 0) and still keep the average under.
    const auto& lc = set_->lcByName("xapian");
    const auto& be = set_->beByName("graph");
    const Watts tight_cap{120.0};
    const auto result = runServerScenario(
        lc, &be, tight_cap,
        std::make_unique<PomController>(modelOf("xapian")),
        wl::LoadTrace::constant(0.1), 240 * kSecond);
    EXPECT_GT(result.stats.cappedFraction(), 0.5);
    EXPECT_LE(result.stats.averagePower(), tight_cap * 1.02);
    EXPECT_GT(result.stats.averageBeThroughput(), Rps{});
}

TEST_F(ControllerTest, ScenarioRunnerValidation)
{
    const auto& lc = set_->lcByName("xapian");
    ServerManagerConfig config;
    config.warmup = 100 * kSecond;
    EXPECT_THROW(
        runServerScenario(lc, nullptr, lc.provisionedPower(),
                          std::make_unique<HeraclesController>(),
                          wl::LoadTrace::constant(0.5),
                          50 * kSecond, config),
        poco::FatalError);
}

TEST_F(ControllerTest, ControlPeriodIsAPositiveMultipleOfTheTick)
{
    const auto& lc = set_->lcByName("xapian");
    ColocatedServer server(lc, nullptr, lc.provisionedPower());
    const auto build = [&](SimTime period) {
        ServerManagerConfig config;
        config.controlPeriod = period;
        ServerManager manager(server,
                              std::make_unique<HeraclesController>(),
                              wl::LoadTrace::constant(0.5), config);
    };
    EXPECT_THROW(build(0), poco::FatalError);
    EXPECT_THROW(build(-1 * kSecond), poco::FatalError);
    EXPECT_THROW(build(150 * kMillisecond), poco::FatalError);
    EXPECT_NO_THROW(build(500 * kMillisecond));
    EXPECT_NO_THROW(build(4 * kSecond));
}

TEST_F(ControllerTest, TelemetryIsRecorded)
{
    const auto& lc = set_->lcByName("tpcc");
    {
        // Without keepTelemetry no sample is built or kept.
        ColocatedServer server(lc, nullptr, lc.provisionedPower());
        ServerManager manager(server,
                              std::make_unique<HeraclesController>(),
                              wl::LoadTrace::constant(0.4));
        manager.runUntil(10 * kSecond);
        EXPECT_TRUE(manager.telemetry().empty());
    }
    ColocatedServer server(lc, nullptr, lc.provisionedPower());
    ServerManagerConfig config;
    config.keepTelemetry = true;
    ServerManager manager(server,
                          std::make_unique<HeraclesController>(),
                          wl::LoadTrace::constant(0.4), config);
    manager.runUntil(10 * kSecond);
    EXPECT_GT(manager.telemetry().size(), 50u);
    const auto& sample = manager.telemetry().latest();
    EXPECT_GT(sample.power, Watts{});
    EXPECT_NEAR(sample.lcLoad.value(), 0.4 * lc.peakLoad().value(),
                1e-9);
}

} // namespace
} // namespace poco::server
