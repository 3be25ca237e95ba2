/**
 * @file
 * poco::scen scenario generator: spec validation, seeded
 * determinism across thread counts, Zipf platform-mix
 * sanity, and the end-to-end FleetConfig::withScenario seam.
 * Runs under tier-scen.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "fleet/scenario_fleet.hpp"
#include "runtime/thread_pool.hpp"
#include "scen/scenario.hpp"
#include "util/check.hpp"

namespace poco
{
namespace
{

/** Small but fully featured spec shared by the determinism tests. */
scen::ScenarioSpec
smallSpec()
{
    return scen::ScenarioSpec{}
        .withClusters(6)
        .withServersPerCluster(2)
        .withApps(1, 2)
        .withPlatformZipf(1.2)
        .withPlatformCount(3)
        .withRegions(3)
        .withEpochs(2)
        .withFlashCrowds(1, 0.6, 1 * kHour)
        .withBeArrivals(4.0)
        .withFaultStorms(1, 10 * kMinute, 0.2)
        .withSeed(99);
}

/** Coarse evaluation config for the fleet round-trip tests. */
FleetConfig
coarseConfig(int threads)
{
    FleetConfig config = FleetConfig{}
                             .withLoadPoints({0.4, 0.8})
                             .withDwell(2 * kSecond)
                             .withHeraclesReplicas(1)
                             .withSeed(5)
                             .withThreads(threads);
    config.profiler.coreStep = 5;
    config.profiler.wayStep = 9;
    config.server.warmup = 1 * kSecond;
    return config;
}

TEST(ScenarioSpec, RejectsEmptyFleet)
{
    EXPECT_THROW(scen::ScenarioSpec{}.withClusters(0),
                 poco::FatalError);
    scen::ScenarioSpec spec;
    spec.clusters = 0; // bypass the setter; validated() must catch
    EXPECT_THROW(spec.validated(), poco::FatalError);
}

TEST(ScenarioSpec, RejectsNonPositiveZipf)
{
    EXPECT_THROW(scen::ScenarioSpec{}.withPlatformZipf(0.0),
                 poco::FatalError);
    EXPECT_THROW(scen::ScenarioSpec{}.withPlatformZipf(-1.1),
                 poco::FatalError);
    scen::ScenarioSpec spec;
    spec.platformZipf = -0.5;
    EXPECT_THROW(spec.validated(), poco::FatalError);
}

TEST(ScenarioSpec, RejectsOverlappingRegions)
{
    // More regions than clusters: two spike groups would overlap on
    // the same cluster stripe. Only validated() can see both fields.
    const scen::ScenarioSpec spec =
        scen::ScenarioSpec{}.withClusters(4).withRegions(9);
    EXPECT_THROW(spec.validated(), poco::FatalError);
    EXPECT_THROW(scen::Scenario::generate(spec), poco::FatalError);
    EXPECT_NO_THROW(
        scen::ScenarioSpec{}.withClusters(9).withRegions(9)
            .validated());
}

TEST(ScenarioSpec, RejectsOversizedEpisodes)
{
    EXPECT_THROW(scen::ScenarioSpec{}
                     .withDay(1 * kHour)
                     .withFlashCrowds(1, 0.5, 2 * kHour)
                     .validated(),
                 poco::FatalError);
    EXPECT_THROW(scen::ScenarioSpec{}
                     .withDay(1 * kMinute)
                     .withFaultStorms(1, 10 * kMinute, 0.2)
                     .validated(),
                 poco::FatalError);
}

TEST(ScenarioSpec, ValidatedRechecksEverySetterRule)
{
    // Each field written past its setter must still be caught, by
    // validated() and so by generate().
    const std::vector<void (*)(scen::ScenarioSpec&)> bad_writes = {
        [](scen::ScenarioSpec& s) { s.phaseJitter = 2.0; },
        [](scen::ScenarioSpec& s) { s.phaseJitter = -1.0; },
        [](scen::ScenarioSpec& s) { s.flashCrowds = -1; },
        [](scen::ScenarioSpec& s) { s.flashMagnitude = -0.1; },
        [](scen::ScenarioSpec& s) { s.flashDuration = 0; },
        [](scen::ScenarioSpec& s) { s.faultStorms = -1; },
        [](scen::ScenarioSpec& s) { s.stormDuration = 0; },
        [](scen::ScenarioSpec& s) { s.stormMagnitude = -0.1; },
    };
    for (std::size_t k = 0; k < bad_writes.size(); ++k) {
        scen::ScenarioSpec spec = smallSpec();
        bad_writes[k](spec);
        EXPECT_THROW(spec.validated(), poco::FatalError) << "case " << k;
        EXPECT_THROW(scen::Scenario::generate(spec), poco::FatalError)
            << "case " << k;
    }

    // The closed ends of the jitter range and zero counts are valid.
    for (const double jitter : {0.0, 1.0}) {
        scen::ScenarioSpec spec = smallSpec();
        spec.phaseJitter = jitter;
        EXPECT_NO_THROW(spec.validated()) << "jitter " << jitter;
    }
    scen::ScenarioSpec spec = smallSpec();
    spec.flashCrowds = 0;
    spec.faultStorms = 0;
    EXPECT_NO_THROW(spec.validated());
    EXPECT_NO_THROW(scen::Scenario::generate(spec));
}

TEST(ScenarioGenerate, FingerprintIdenticalAcrossThreadCounts)
{
    const scen::ScenarioSpec spec = smallSpec().withClusters(40);
    const scen::Scenario serial = scen::Scenario::generate(spec);
    runtime::ThreadPool pool(4);
    const scen::Scenario parallel =
        scen::Scenario::generate(spec, &pool);

    EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
    ASSERT_EQ(serial.clusterCount(), parallel.clusterCount());
    for (std::size_t c = 0; c < serial.clusterCount(); ++c) {
        EXPECT_EQ(serial.clusters()[c].platform,
                  parallel.clusters()[c].platform);
        EXPECT_EQ(serial.clusters()[c].epochLoads,
                  parallel.clusters()[c].epochLoads);
    }
    EXPECT_EQ(serial.beArrivals().fingerprint(),
              parallel.beArrivals().fingerprint());
    EXPECT_EQ(serial.faultStorm().fingerprint(),
              parallel.faultStorm().fingerprint());
}

TEST(ScenarioGenerate, DifferentSeedsDifferentFleets)
{
    const scen::Scenario a =
        scen::Scenario::generate(smallSpec().withSeed(1));
    const scen::Scenario b =
        scen::Scenario::generate(smallSpec().withSeed(2));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(ScenarioGenerate, EmitsWellFormedFleet)
{
    const scen::ScenarioSpec spec = smallSpec();
    const scen::Scenario scenario = scen::Scenario::generate(spec);

    EXPECT_EQ(scenario.clusterCount(), spec.clusters);
    EXPECT_EQ(scenario.servers().size(),
              spec.clusters *
                  static_cast<std::size_t>(spec.serversPerCluster));
    EXPECT_EQ(scenario.epochClusterLoads().size(),
              spec.clusters * static_cast<std::size_t>(spec.epochs));
    for (const double load : scenario.epochClusterLoads()) {
        EXPECT_GT(load, 0.0);
        EXPECT_LE(load, 1.0);
    }
    for (const scen::ClusterScenario& cluster :
         scenario.clusters()) {
        ASSERT_NE(cluster.apps, nullptr);
        EXPECT_EQ(cluster.apps->lc.size(),
                  static_cast<std::size_t>(spec.lcApps));
        EXPECT_EQ(cluster.apps->be.size(),
                  static_cast<std::size_t>(spec.beApps));
        EXPECT_LT(cluster.region, spec.regions);
        EXPECT_LT(cluster.platform,
                  static_cast<std::size_t>(spec.platformCount));
    }
    // BE arrivals plus one LoadShift marker per epoch, all inside
    // the day.
    EXPECT_GT(scenario.beArrivals().size(),
              static_cast<std::size_t>(spec.epochs));
    EXPECT_LE(scenario.beArrivals().horizon(), spec.day);
    EXPECT_TRUE(scenario.faultStorm().enabled());
}

TEST(ScenarioGenerate, ZipfSkewsTowardIncumbentPlatform)
{
    const scen::Scenario scenario = scen::Scenario::generate(
        scen::ScenarioSpec{}
            .withClusters(600)
            .withPlatformZipf(1.2)
            .withPlatformCount(4)
            .withSeed(3));
    std::vector<std::size_t> counts(4, 0);
    for (const scen::ClusterScenario& cluster :
         scenario.clusters())
        ++counts[cluster.platform];
    // Rank 0 must dominate every other rank, and the most common
    // rank must beat the rarest by a wide margin (Zipf, not
    // uniform): with s = 1.2 the expected head share is ~48%.
    EXPECT_EQ(counts[0],
              *std::max_element(counts.begin(), counts.end()));
    EXPECT_GT(counts[0], 600u / 3);
    EXPECT_GT(counts[0],
              2 * *std::min_element(counts.begin(), counts.end()));
}

TEST(ScenarioFleet, RollupIdenticalAcrossThreadsAndShards)
{
    const scen::Scenario scenario =
        scen::Scenario::generate(smallSpec());

    const std::uint64_t expected =
        fleet::evaluateScenario(scenario, coarseConfig(1))
            .value.fingerprint();
    for (const int threads : {2, 4})
        EXPECT_EQ(fleet::evaluateScenario(scenario,
                                          coarseConfig(threads))
                      .value.fingerprint(),
                  expected)
            << "threads=" << threads;
}

TEST(ScenarioFleet, WithScenarioAdoptsLoadsAndFingerprint)
{
    const scen::Scenario scenario =
        scen::Scenario::generate(smallSpec());
    FleetConfig config = coarseConfig(1);
    config.withScenario(scenario);

    EXPECT_EQ(config.epochClusterWidth, scenario.clusterCount());
    EXPECT_EQ(config.epochClusterLoads,
              scenario.epochClusterLoads());
    EXPECT_EQ(config.scenarioFingerprint, scenario.fingerprint());
    ASSERT_EQ(config.epochLoads.size(),
              static_cast<std::size_t>(smallSpec().epochs));
    // epochLoads must hold the per-epoch means of the scenario rows.
    for (std::size_t e = 0; e < config.epochLoads.size(); ++e) {
        double mean = 0.0;
        for (std::size_t c = 0; c < scenario.clusterCount(); ++c)
            mean += scenario.epochClusterLoads()
                        [e * scenario.clusterCount() + c];
        mean /= static_cast<double>(scenario.clusterCount());
        EXPECT_DOUBLE_EQ(config.epochLoads[e], mean);
    }
    EXPECT_NO_THROW(config.validated());

    // The spec overload must expand and land on the same loads.
    FleetConfig from_spec = coarseConfig(1);
    from_spec.withScenario(smallSpec());
    EXPECT_EQ(from_spec.epochClusterLoads, config.epochClusterLoads);
    EXPECT_EQ(from_spec.scenarioFingerprint,
              config.scenarioFingerprint);
}

TEST(ScenarioFleet, EvaluatorRejectsMismatchedWidth)
{
    const scen::Scenario scenario =
        scen::Scenario::generate(smallSpec());
    FleetConfig config = coarseConfig(1);
    config.withScenario(scenario);

    // Drop one cluster's servers: the partition now disagrees with
    // the scenario schedule and the evaluator must refuse.
    std::vector<fleet::FleetServer> servers =
        fleet::serversFromScenario(scenario);
    servers.resize(servers.size() - 2);
    EXPECT_THROW(
        fleet::FleetEvaluator(std::move(servers), config),
        poco::FatalError);
}

} // namespace
} // namespace poco
