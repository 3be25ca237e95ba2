/**
 * @file
 * The fleet layer's headline guarantee: the fleet rollup is
 * bit-identical for any thread count, owned or borrowed pool.
 * partitionFleet must be canonical (a pure function of the
 * input server list), and the fingerprint must cover every result
 * bit while ignoring wall-clock timing. Runs under tier-fleet and
 * tier-tsan.
 */

#include <gtest/gtest.h>

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

TEST_F(FleetFixture, FingerprintSeesResultBitsNotTiming)
{
    const FleetEvaluator evaluator(servers(), smallConfig());
    auto outcome = evaluator.run();
    const std::uint64_t original = outcome.value.fingerprint();

    // Wall-clock timing is excluded...
    outcome.value.aggregatorSeconds += 1.0;
    EXPECT_EQ(outcome.value.fingerprint(), original);

    // ...but any result bit flips it.
    outcome.value.totalEnergy += Joules{1.0};
    EXPECT_NE(outcome.value.fingerprint(), original);
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
