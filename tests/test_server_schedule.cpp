/**
 * @file
 * Tests for time-sharing multiple best-effort jobs (Section V-G).
 */

#include <gtest/gtest.h>

#include <memory>

#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "server/be_schedule.hpp"
#include "util/check.hpp"
#include "wl/registry.hpp"

namespace poco::server
{
namespace
{

class ScheduleTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        set_ = new wl::AppSet(wl::defaultAppSet());
        model::Profiler profiler;
        model::UtilityFitter fitter;
        xapian_model_ = new model::CobbDouglasUtility(fitter.fit(
            profiler.profileLc(set_->lcByName("xapian"))));
    }

    static void
    TearDownTestSuite()
    {
        delete xapian_model_;
        delete set_;
        xapian_model_ = nullptr;
        set_ = nullptr;
    }

    std::unique_ptr<PrimaryController>
    pom() const
    {
        return std::make_unique<PomController>(*xapian_model_);
    }

    std::vector<BeJob>
    threeJobs() const
    {
        return {
            BeJob{"big-graph", &set_->beByName("graph"), 60.0},
            BeJob{"small-lstm", &set_->beByName("lstm"), 10.0},
            BeJob{"mid-pbzip2", &set_->beByName("pbzip2"), 30.0},
        };
    }

    static wl::AppSet* set_;
    static model::CobbDouglasUtility* xapian_model_;
};

wl::AppSet* ScheduleTest::set_ = nullptr;
model::CobbDouglasUtility* ScheduleTest::xapian_model_ = nullptr;

TEST_F(ScheduleTest, FcfsCompletesAllJobsInOrder)
{
    const auto& lc = set_->lcByName("xapian");
    const auto result = runBeSchedule(
        lc, threeJobs(), lc.provisionedPower(), pom(),
        wl::LoadTrace::constant(0.2), 30 * kMinute);
    ASSERT_TRUE(result.allFinished);
    ASSERT_EQ(result.jobs.size(), 3u);
    // FCFS: completion order follows submission order.
    EXPECT_LT(result.jobs[0].completion, result.jobs[1].completion);
    EXPECT_LT(result.jobs[1].completion, result.jobs[2].completion);
    // Each job did (at least) its work.
    EXPECT_GE(result.jobs[0].workDone, 60.0 - 1e-6);
    EXPECT_GE(result.jobs[1].workDone, 10.0 - 1e-6);
    EXPECT_GE(result.jobs[2].workDone, 30.0 - 1e-6);
    EXPECT_EQ(result.makespan, result.jobs[2].completion);
    EXPECT_EQ(result.finishedCount(), 3u);
}

TEST_F(ScheduleTest, SjfMinimizesMeanCompletion)
{
    const auto& lc = set_->lcByName("xapian");
    SchedulerConfig fcfs;
    fcfs.policy = SchedulePolicy::Fcfs;
    SchedulerConfig sjf;
    sjf.policy = SchedulePolicy::Sjf;

    const auto r_fcfs = runBeSchedule(
        lc, threeJobs(), lc.provisionedPower(), pom(),
        wl::LoadTrace::constant(0.2), 30 * kMinute, fcfs);
    const auto r_sjf = runBeSchedule(
        lc, threeJobs(), lc.provisionedPower(), pom(),
        wl::LoadTrace::constant(0.2), 30 * kMinute, sjf);
    ASSERT_TRUE(r_fcfs.allFinished && r_sjf.allFinished);
    // The classic scheduling result; strict because job sizes
    // differ substantially.
    EXPECT_LT(r_sjf.meanCompletionSeconds(),
              r_fcfs.meanCompletionSeconds());
    // Makespan is policy-insensitive up to switch overheads (none
    // are modeled) and throughput differences between apps.
    EXPECT_NEAR(toSeconds(r_sjf.makespan),
                toSeconds(r_fcfs.makespan),
                0.15 * toSeconds(r_fcfs.makespan));
}

TEST_F(ScheduleTest, SjfRunsShortestFirst)
{
    const auto& lc = set_->lcByName("xapian");
    SchedulerConfig sjf;
    sjf.policy = SchedulePolicy::Sjf;
    const auto result = runBeSchedule(
        lc, threeJobs(), lc.provisionedPower(), pom(),
        wl::LoadTrace::constant(0.2), 30 * kMinute, sjf);
    ASSERT_TRUE(result.allFinished);
    // jobs vector preserves submission order; completions follow
    // size order: lstm (10) < pbzip2 (30) < graph (60).
    EXPECT_LT(result.jobs[1].completion, result.jobs[2].completion);
    EXPECT_LT(result.jobs[2].completion, result.jobs[0].completion);
}

TEST_F(ScheduleTest, RoundRobinInterleaves)
{
    const auto& lc = set_->lcByName("xapian");
    SchedulerConfig rr;
    rr.policy = SchedulePolicy::RoundRobin;
    rr.quantum = 5 * kSecond;
    const auto result = runBeSchedule(
        lc, threeJobs(), lc.provisionedPower(), pom(),
        wl::LoadTrace::constant(0.2), 30 * kMinute, rr);
    ASSERT_TRUE(result.allFinished);
    // Under RR the small job still finishes first, but later than
    // under SJF because it shares quanta with the big ones.
    SchedulerConfig sjf;
    sjf.policy = SchedulePolicy::Sjf;
    const auto r_sjf = runBeSchedule(
        lc, threeJobs(), lc.provisionedPower(), pom(),
        wl::LoadTrace::constant(0.2), 30 * kMinute, sjf);
    EXPECT_GT(result.jobs[1].completion, r_sjf.jobs[1].completion);
}

TEST_F(ScheduleTest, DeadlineLeavesJobsUnfinished)
{
    const auto& lc = set_->lcByName("xapian");
    const auto result = runBeSchedule(
        lc, threeJobs(), lc.provisionedPower(), pom(),
        wl::LoadTrace::constant(0.2), 90 * kSecond);
    EXPECT_FALSE(result.allFinished);
    EXPECT_EQ(result.makespan, 90 * kSecond);
    EXPECT_LT(result.finishedCount(), 3u);
    // Work is conserved: total done <= total demanded.
    double done = 0.0;
    for (const auto& job : result.jobs)
        done += job.workDone;
    EXPECT_LE(done, 100.0 + 1e-6);
    EXPECT_GT(done, 0.0);
}

TEST_F(ScheduleTest, SloHeldThroughoutSchedule)
{
    const auto& lc = set_->lcByName("xapian");
    const auto result = runBeSchedule(
        lc, threeJobs(), lc.provisionedPower(), pom(),
        wl::LoadTrace::stepped({0.2, 0.6, 0.4}, 120 * kSecond),
        30 * kMinute);
    EXPECT_LT(result.stats.sloViolationFraction(), 0.01);
    EXPECT_LE(result.stats.averagePower(),
              lc.provisionedPower() * 1.01);
}

TEST_F(ScheduleTest, InputValidation)
{
    const auto& lc = set_->lcByName("xapian");
    EXPECT_THROW(runBeSchedule(lc, {}, lc.provisionedPower(), pom(),
                               wl::LoadTrace::constant(0.2),
                               kMinute),
                 poco::FatalError);
    std::vector<BeJob> bad = {
        BeJob{"zero", &set_->beByName("lstm"), 0.0}};
    EXPECT_THROW(runBeSchedule(lc, bad, lc.provisionedPower(), pom(),
                               wl::LoadTrace::constant(0.2),
                               kMinute),
                 poco::FatalError);
    std::vector<BeJob> noapp = {BeJob{"null", nullptr, 5.0}};
    EXPECT_THROW(runBeSchedule(lc, noapp, lc.provisionedPower(),
                               pom(), wl::LoadTrace::constant(0.2),
                               kMinute),
                 poco::FatalError);
}

TEST_F(ScheduleTest, QuantumIsAtLeastOneTick)
{
    const auto& lc = set_->lcByName("xapian");
    SchedulerConfig rr;
    rr.policy = SchedulePolicy::RoundRobin;
    rr.quantum = 99 * kMillisecond;
    EXPECT_THROW(runBeSchedule(lc, threeJobs(), lc.provisionedPower(),
                               pom(), wl::LoadTrace::constant(0.2),
                               kMinute, rr),
                 poco::FatalError);
    rr.quantum = 100 * kMillisecond;
    EXPECT_NO_THROW(runBeSchedule(lc, threeJobs(),
                                  lc.provisionedPower(), pom(),
                                  wl::LoadTrace::constant(0.2),
                                  5 * kSecond, rr));
}

TEST(ScheduleUnit, PolicyNames)
{
    EXPECT_STREQ(schedulePolicyName(SchedulePolicy::Fcfs), "fcfs");
    EXPECT_STREQ(schedulePolicyName(SchedulePolicy::Sjf), "sjf");
    EXPECT_STREQ(schedulePolicyName(SchedulePolicy::RoundRobin),
                 "round-robin");
}

} // namespace
} // namespace poco::server
