/**
 * @file
 * The fleet layer's headline guarantee: the fleet rollup is
 * bit-identical for any thread count, owned or borrowed pool.
 * partitionFleet must be canonical (a pure function of the
 * input server list), and the fingerprint must cover every result
 * bit. Runs under tier-fleet and tier-tsan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "fleet/fleet_evaluator.hpp"
#include "runtime/thread_pool.hpp"
#include "wl/registry.hpp"

namespace poco::fleet
{
namespace
{

/**
 * Two clusters on distinct AppSet instances: four unique-LC servers
 * plus a three-server cluster where one LC app is replicated (two
 * members host lc[1]), exercising the replica pairing path.
 */
class FleetFixture : public ::testing::Test
{
  protected:
    FleetFixture()
        : set_a_(wl::defaultAppSet()), set_b_(wl::defaultAppSet())
    {}

    std::vector<FleetServer> servers() const
    {
        std::vector<FleetServer> fleet;
        for (std::size_t j = 0; j < set_a_.lc.size(); ++j)
            fleet.push_back({&set_a_, j, Watts{}});
        fleet.push_back({&set_b_, 0, Watts{}});
        fleet.push_back({&set_b_, 1, Watts{}});
        fleet.push_back({&set_b_, 1, Watts{}});
        return fleet;
    }

    static FleetConfig smallConfig()
    {
        return FleetConfig{}
            .withLoadPoints({0.3, 0.7})
            .withDwell(30 * kSecond)
            .withHeraclesReplicas(2)
            .withSeed(17)
            .withEpochLoads({0.4, 0.9});
    }

    std::uint64_t fingerprintFor(FleetConfig config) const
    {
        const FleetEvaluator evaluator(servers(), std::move(config));
        const auto outcome = evaluator.run();
        return outcome.value.fingerprint();
    }

    wl::AppSet set_a_;
    wl::AppSet set_b_;
};

TEST_F(FleetFixture, PartitionIsCanonicalFirstAppearanceOrder)
{
    const auto clusters = partitionFleet(servers());
    ASSERT_EQ(clusters.size(), 2u);
    EXPECT_EQ(clusters[0].apps, &set_a_);
    EXPECT_EQ(clusters[1].apps, &set_b_);
    EXPECT_EQ(clusters[0].members,
              (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(clusters[1].members,
              (std::vector<std::size_t>{4, 5, 6}));
    EXPECT_EQ(clusters[1].lcIndices,
              (std::vector<std::size_t>{0, 1, 1}));

    // Interleaving the same servers regroups identically: clusters
    // key on first appearance of the platform, members stay sorted.
    std::vector<FleetServer> interleaved = {
        {&set_a_, 0, Watts{}}, {&set_b_, 0, Watts{}},
        {&set_a_, 1, Watts{}}, {&set_b_, 1, Watts{}},
    };
    const auto mixed = partitionFleet(interleaved);
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_EQ(mixed[0].apps, &set_a_);
    EXPECT_EQ(mixed[0].members, (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(mixed[1].members, (std::vector<std::size_t>{1, 3}));
}

TEST_F(FleetFixture, PartitionRejectsBadServers)
{
    EXPECT_THROW(partitionFleet({}), FatalError);
    EXPECT_THROW(partitionFleet({{nullptr, 0, Watts{}}}),
                 FatalError);
    EXPECT_THROW(
        partitionFleet({{&set_a_, set_a_.lc.size(), Watts{}}}),
        FatalError);
    EXPECT_THROW(partitionFleet({{&set_a_, 0, Watts{-1.0}}}),
                 FatalError);
}

TEST_F(FleetFixture, RollupIsBitIdenticalForAnyShardAndThreadCount)
{
    const std::uint64_t baseline =
        fingerprintFor(smallConfig().withThreads(1));
    for (const int threads : {2, 4})
        EXPECT_EQ(fingerprintFor(smallConfig().withThreads(threads)),
                  baseline)
            << "threads=" << threads;

    // The benchmark's shape: three workers borrowed from the caller.
    runtime::ThreadPool borrowed(3);
    EXPECT_EQ(fingerprintFor(smallConfig().withPool(&borrowed)),
              baseline)
        << "borrowed 3-worker pool";
}

TEST_F(FleetFixture, FingerprintSeesResultBits)
{
    const FleetEvaluator evaluator(servers(), smallConfig());
    auto outcome = evaluator.run();
    const std::uint64_t original = outcome.value.fingerprint();

    outcome.value.totalEnergy += Joules{1.0};
    EXPECT_NE(outcome.value.fingerprint(), original);
}

TEST_F(FleetFixture, PairMemoKeepsRollupsNotSamples)
{
    const FleetConfig config = smallConfig();
    const FleetEvaluator evaluator(servers(), config);
    const auto outcome = evaluator.run();
    const ClusterEpochOutcome& want = outcome.value.epochs[0].clusters[0];

    // Replay cluster 0's first epoch against its memo: the same
    // placement, load and member cap as runClusterEpoch.
    const FleetCluster& home = evaluator.clusters()[0];
    const cluster::ClusterEvaluator& memo = evaluator.clusterEvaluator(0);
    std::vector<int> up(home.lcIndices.begin(), home.lcIndices.end());
    std::sort(up.begin(), up.end());
    up.erase(std::unique(up.begin(), up.end()), up.end());
    const auto placement = memo.placeBeRobust(up);
    std::vector<int> be_of(home.apps->lc.size(), -1);
    for (std::size_t i = 0; i < placement.value.size(); ++i)
        if (placement.value[i] >= 0)
            be_of[static_cast<std::size_t>(placement.value[i])] =
                static_cast<int>(i);

    sim::EpochRollup combined;
    combined.start = config.server.warmup;
    combined.end = config.server.warmup + config.dwell;
    for (const std::size_t j : home.lcIndices) {
        const cluster::ServerOutcome run = memo.runPairAtLoad(
            j, be_of[j], cluster::ManagerKind::Pom,
            config.epochLoads[0], want.memberCap);
        EXPECT_TRUE(run.run.telemetry.empty())
            << "the pair memo must not retain sample series";
        EXPECT_GT(run.run.steady.samples, 0u);
        combined += run.run.steady;
    }
    // The runs are the ones the epoch combined, bit for bit.
    EXPECT_EQ(combined.samples, want.telemetry.samples);
    EXPECT_EQ(combined.energy.value(), want.telemetry.energy.value());
    EXPECT_EQ(combined.capOvershoot.value(),
              want.telemetry.capOvershoot.value());
}

TEST_F(FleetFixture, EpochStatisticsAreTheTelemetryRollup)
{
    // Each member's steady rollup is read off its run's statistics,
    // so the epoch's statistics sums and the combined rollup are the
    // same additions in the same order.
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    const FleetEvaluator evaluator(servers(), smallConfig());
    const auto outcome = evaluator.run();
    std::size_t checked = 0;
    for (const FleetEpoch& epoch : outcome.value.epochs) {
        for (const ClusterEpochOutcome& cluster : epoch.clusters) {
            SCOPED_TRACE(::testing::Message()
                         << "epoch load " << epoch.load << " cluster "
                         << cluster.cluster);
            EXPECT_EQ(bits(cluster.beThroughput.value()),
                      bits(cluster.telemetry.meanBeThroughput.value()));
            EXPECT_EQ(bits(cluster.energy.value()),
                      bits(cluster.telemetry.energy.value()));
            EXPECT_EQ(bits(cluster.meanDraw.value()),
                      bits(cluster.telemetry.meanPower.value()));
            ++checked;
        }
    }
    EXPECT_EQ(checked, 4u);
}

TEST_F(FleetFixture, SeedChangesTheRollup)
{
    EXPECT_NE(fingerprintFor(smallConfig().withSeed(17)),
              fingerprintFor(smallConfig().withSeed(18)));
}

TEST_F(FleetFixture, RunIsRepeatable)
{
    const FleetEvaluator evaluator(servers(),
                                   smallConfig().withThreads(4));
    EXPECT_EQ(evaluator.run().value.fingerprint(),
              evaluator.run().value.fingerprint());
}

} // namespace
} // namespace poco::fleet
