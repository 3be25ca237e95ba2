/**
 * @file
 * End-to-end integration tests: the paper's Figs. 12-13 claims as
 * assertions. These runs are the heaviest tests in the suite; the
 * evaluator caches pair runs, so one fixture instance is shared.
 */

#include <gtest/gtest.h>

#include "cluster/cluster_evaluator.hpp"
#include "util/check.hpp"

namespace poco::cluster
{
namespace
{

class EndToEndTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        set_ = new wl::AppSet(wl::defaultAppSet());
        evaluator_ = new ClusterEvaluator(*set_);
        random_ = new ClusterOutcome(
            evaluator_->runPolicy(Policy::Random));
        pom_ = new ClusterOutcome(evaluator_->runPolicy(Policy::Pom));
        pocolo_ = new ClusterOutcome(
            evaluator_->runPolicy(Policy::PoColo));
    }

    static void
    TearDownTestSuite()
    {
        delete pocolo_;
        delete pom_;
        delete random_;
        delete evaluator_;
        delete set_;
        pocolo_ = nullptr;
        pom_ = nullptr;
        random_ = nullptr;
        evaluator_ = nullptr;
        set_ = nullptr;
    }

    static wl::AppSet* set_;
    static ClusterEvaluator* evaluator_;
    static ClusterOutcome* random_;
    static ClusterOutcome* pom_;
    static ClusterOutcome* pocolo_;
};

wl::AppSet* EndToEndTest::set_ = nullptr;
ClusterEvaluator* EndToEndTest::evaluator_ = nullptr;
ClusterOutcome* EndToEndTest::random_ = nullptr;
ClusterOutcome* EndToEndTest::pom_ = nullptr;
ClusterOutcome* EndToEndTest::pocolo_ = nullptr;

TEST_F(EndToEndTest, Fig12PolicyOrdering)
{
    // The headline shape: POColo > POM > Random in mean BE
    // throughput, with meaningful margins.
    const double r = random_->meanBeThroughput();
    const double p = pom_->meanBeThroughput();
    const double c = pocolo_->meanBeThroughput();
    EXPECT_GT(p, r * 1.01) << "POM should beat Random by > 1%";
    EXPECT_GT(c, p * 1.03) << "POColo should beat POM by > 3%";
    EXPECT_GT(c, r * 1.08) << "POColo should beat Random by > 8%";
}

TEST_F(EndToEndTest, Fig13PowerUtilizationOrdering)
{
    // Random's power-unaware allocations push utilization against
    // the cap; POM/POColo run measurably cooler.
    EXPECT_GT(random_->meanPowerUtilization(),
              pom_->meanPowerUtilization() + 0.01);
    EXPECT_GT(random_->meanPowerUtilization(),
              pocolo_->meanPowerUtilization() + 0.01);
    // Everyone stays at or under capacity on average.
    for (const ClusterOutcome* outcome : {random_, pom_, pocolo_})
        for (const auto& s : outcome->servers)
            EXPECT_LE(s.run.powerUtilization, 1.01);
}

TEST_F(EndToEndTest, SlosHoldUnderManagedPolicies)
{
    EXPECT_LT(pom_->maxSloViolationFraction(), 0.005);
    EXPECT_LT(pocolo_->maxSloViolationFraction(), 0.005);
    // The reactive baseline may violate transiently at load steps,
    // but must remain rare.
    EXPECT_LT(random_->maxSloViolationFraction(), 0.06);
}

TEST_F(EndToEndTest, EnergyPerWorkImprovesUnderPocolo)
{
    const double random_epw = random_->totalEnergyJoules() /
                              random_->totalBeThroughput();
    const double pocolo_epw = pocolo_->totalEnergyJoules() /
                              pocolo_->totalBeThroughput();
    EXPECT_LT(pocolo_epw, random_epw * 0.95);
}

TEST_F(EndToEndTest, PocoloAssignmentBeatsRandomAssignments)
{
    // Under the POM manager, the LP assignment's realized throughput
    // must beat the average random assignment (that is the entire
    // value of the placement stage).
    const auto random_pom = evaluator_->runRandomAveraged(
        ManagerKind::Pom);
    EXPECT_GT(pocolo_->totalBeThroughput(),
              random_pom.totalBeThroughput() * 1.02);
}

TEST_F(EndToEndTest, OutcomeAccountingIsConsistent)
{
    for (const ClusterOutcome* outcome : {random_, pom_, pocolo_}) {
        ASSERT_EQ(outcome->servers.size(), 4u);
        double total = 0.0;
        for (const auto& s : outcome->servers)
            total += s.run.stats.averageBeThroughput().value();
        EXPECT_NEAR(outcome->totalBeThroughput(), total, 1e-9);
        EXPECT_NEAR(outcome->meanBeThroughput(), total / 4.0, 1e-9);
        EXPECT_GT(outcome->totalEnergyJoules(), 0.0);
    }
}

TEST_F(EndToEndTest, RunAssignmentValidation)
{
    EXPECT_THROW(evaluator_->runAssignment({0, 0, 1, 2},
                                           ManagerKind::Pom),
                 poco::FatalError); // duplicate server
    EXPECT_THROW(evaluator_->runAssignment({0, 1, 2, 9},
                                           ManagerKind::Pom),
                 poco::FatalError); // out of range
}

TEST_F(EndToEndTest, PairRunsAreCachedAndDeterministic)
{
    const auto a = evaluator_->runPair(0, 0, ManagerKind::Pom);
    const auto b = evaluator_->runPair(0, 0, ManagerKind::Pom);
    EXPECT_DOUBLE_EQ(a.run.stats.averageBeThroughput().value(),
                     b.run.stats.averageBeThroughput().value());
    EXPECT_DOUBLE_EQ(a.run.powerUtilization, b.run.powerUtilization);
}

TEST_F(EndToEndTest, PairRunMemoKeysOnExactLoad)
{
    // Two loads that print alike at six significant digits are still
    // two runs: the second call must not be served the first's memo
    // entry, and must match what a fresh evaluator computes.
    const auto at_half =
        evaluator_->runPairAtLoad(0, 0, ManagerKind::Pom, 0.5);
    const auto nudged =
        evaluator_->runPairAtLoad(0, 0, ManagerKind::Pom, 0.50000049);
    const ClusterEvaluator fresh(*set_);
    const auto oracle =
        fresh.runPairAtLoad(0, 0, ManagerKind::Pom, 0.50000049);
    EXPECT_EQ(nudged.run.stats.energyJoules.value(),
              oracle.run.stats.energyJoules.value());
    EXPECT_NE(nudged.run.stats.energyJoules.value(),
              at_half.run.stats.energyJoules.value());
}

TEST_F(EndToEndTest, RunPairAtLoadMonotoneInLoad)
{
    // More primary load -> less BE throughput, for a fixed pairing.
    const auto lo =
        evaluator_->runPairAtLoad(1, 2, ManagerKind::Pom, 0.2);
    const auto hi =
        evaluator_->runPairAtLoad(1, 2, ManagerKind::Pom, 0.8);
    EXPECT_GT(lo.run.stats.averageBeThroughput(),
              hi.run.stats.averageBeThroughput());
}

TEST_F(EndToEndTest, PocoloWinsAtEverySeed)
{
    // The POColo-vs-Random win must be robust to the stochastic
    // streams (profiling noise, baseline draws), not a seed
    // artifact. The POM-only margin is smaller and is allowed to
    // vary; POColo's must hold at every salt.
    for (std::uint64_t salt : {5ull, 6ull}) {
        FleetConfig config;
        config.seed = salt;
        const ClusterEvaluator seeded(*set_, config);
        const double r =
            seeded.runPolicy(Policy::Random).meanBeThroughput();
        const double c =
            seeded.runPolicy(Policy::PoColo).meanBeThroughput();
        EXPECT_GT(c, r * 1.03) << "salt " << salt;
    }
}

TEST_F(EndToEndTest, NamesAreWellFormed)
{
    EXPECT_STREQ(policyName(Policy::Random), "Random");
    EXPECT_STREQ(policyName(Policy::Pom), "POM");
    EXPECT_STREQ(policyName(Policy::PoColo), "POColo");
    EXPECT_STREQ(managerKindName(ManagerKind::Heracles), "heracles");
    EXPECT_STREQ(managerKindName(ManagerKind::Pom), "pom");
}

} // namespace
} // namespace poco::cluster
