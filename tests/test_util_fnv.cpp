/**
 * @file
 * The shared FNV-1a helper (util/fnv.hpp) against published test
 * vectors, and every public fingerprint pinned to a fixed value on a
 * fixed small input. The fingerprints are the repo's behavioural contract (the
 * identity tests, the bench gates and the recorded benchmark hashes
 * compare them), so a refactor of the hash plumbing must reproduce
 * each one bit for bit. A pinned value changes only when the hashed
 * content or the hash construction changes on purpose.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "ctrl/heartbeat.hpp"
#include "ctrl/master_group.hpp"
#include "fault/fault_plan.hpp"
#include "flat_matrix.hpp"
#include "fleet/fleet_evaluator.hpp"
#include "math/simplex.hpp"
#include "scen/scenario.hpp"
#include "util/fnv.hpp"

namespace poco
{
namespace
{

TEST(Fnv, StepMatchesPublishedVectorsFromThePublishedBasis)
{
    // The repo's basis is not the published one (see util/fnv.hpp);
    // the step is, so seeding it with the published basis must
    // reproduce the published FNV-1a 64 vectors.
    EXPECT_EQ(fnv::kOffset, 1469598103934665603ull);
    constexpr std::uint64_t kPublishedBasis = 0xcbf29ce484222325ull;
    std::uint64_t a = kPublishedBasis;
    fnv::mixByte(a, 'a');
    EXPECT_EQ(a, 0xaf63dc4c8601ec8cull);

    std::uint64_t foobar = kPublishedBasis;
    for (const char c : {'f', 'o', 'o', 'b', 'a', 'r'})
        fnv::mixByte(foobar, static_cast<unsigned char>(c));
    EXPECT_EQ(foobar, 0x85944171f73967e8ull);
}

TEST(Fnv, WordsFoldLittleEndianAndStringsFoldTheirLength)
{
    std::uint64_t word = fnv::kOffset;
    fnv::mixWord(word, 0x0807060504030201ull);
    std::uint64_t bytes = fnv::kOffset;
    for (unsigned char b = 1; b <= 8; ++b)
        fnv::mixByte(bytes, b);
    EXPECT_EQ(word, bytes);

    std::uint64_t a = fnv::kOffset;
    fnv::mixString(a, "ab");
    fnv::mixString(a, "c");
    std::uint64_t b = fnv::kOffset;
    fnv::mixString(b, "a");
    fnv::mixString(b, "bc");
    EXPECT_NE(a, b);

    std::uint64_t zero = fnv::kOffset;
    fnv::mixDouble(zero, 0.0);
    std::uint64_t negative_zero = fnv::kOffset;
    fnv::mixDouble(negative_zero, -0.0);
    EXPECT_NE(zero, negative_zero);
}

/** A pure, tie-free cell model for the control-plane pins. */
double
pinCell(std::size_t be, std::size_t server, double load)
{
    return 10.0 + 7.0 * static_cast<double>(be) +
           3.0 * static_cast<double>((server * 5 + be * 3) % 7) +
           0.1 * static_cast<double>(server) - 4.0 * load;
}

ctrl::EventLog
pinLog()
{
    ctrl::EventLogConfig config;
    config.horizon = 20 * kSecond;
    config.servers = 4;
    config.bePool = 3;
    config.loadShiftRate = 1.0;
    config.beChurnRate = 0.2;
    config.crashRate = 0.1;
    config.budgetChangeRate = 0.1;
    config.meanOutage = 3 * kSecond;
    config.seed = 7;
    return ctrl::EventLog::generate(config);
}

ctrl::ControlPlaneConfig
pinPlane()
{
    ctrl::ControlPlaneConfig config;
    config.servers = 4;
    config.bePool = 3;
    config.initialBe = 2;
    config.perServerBudget = Watts{80.0};
    return config;
}

TEST(FingerprintPins, SimplexBasis)
{
    const test::FlatMatrix value =
        test::flat({{4.0, 1.0, 2.5}, {2.0, 5.0, 1.0}, {1.5, 2.0, 6.0}});
    math::AssignmentLpSolver solver;
    (void)solver.solveCold(value);
    EXPECT_EQ(solver.basisFingerprint(), 0xaf33d46279ec15a7ull);
}

TEST(FingerprintPins, EventLog)
{
    EXPECT_EQ(pinLog().fingerprint(), 0x0876ed4cfc5d5696ull);
}

TEST(FingerprintPins, HeartbeatTracker)
{
    ctrl::HeartbeatTracker tracker(3, ctrl::HeartbeatConfig{},
                                   Watts{50.0});
    tracker.advanceTo(3 * kSecond);
    tracker.crash(1);
    tracker.advanceTo(12 * kSecond);
    EXPECT_EQ(tracker.fingerprint(), 0xd463f95ae16c2d2dull);
}

TEST(FingerprintPins, ControlPlaneRollupAndCheckpoint)
{
    const ctrl::EventLog log = pinLog();
    ctrl::ControlPlane plane(pinCell, pinPlane());
    const auto outcome = plane.replay(log);
    EXPECT_EQ(outcome.value.fingerprint, 0x19bb3669311e8eaeull);
    EXPECT_EQ(outcome.value.semanticFingerprint,
              0xf576c723b621514aull);

    ctrl::ReplayEngine engine(pinCell, pinPlane(), {});
    for (std::size_t k = 0; k < log.size() / 2; ++k)
        engine.apply(log.events()[k]);
    EXPECT_EQ(engine.checkpoint().fingerprint(),
              0xae60738a9f4f78d2ull);
}

TEST(FingerprintPins, MasterGroupRollup)
{
    fault::FaultWindow kill;
    kill.start = 5 * kSecond;
    kill.end = 9 * kSecond;
    kill.kind = fault::FaultKind::MasterKill;
    kill.server = 0;
    ctrl::MasterGroupConfig group;
    group.checkpointEvery = 4;
    ctrl::MasterGroup masters(pinCell, pinPlane(), group);
    const auto outcome =
        masters.run(pinLog(), fault::FaultPlan::fromWindows({kill}));
    EXPECT_EQ(outcome.value.fingerprint, 0xfc15adafd7331c5full);
}

TEST(FingerprintPins, FleetRollup)
{
    sim::EpochRollup telemetry;
    telemetry.start = 1;
    telemetry.end = 5 * kSecond;
    telemetry.samples = 3;
    telemetry.meanPower = Watts{120.5};
    telemetry.meanBeThroughput = Rps{33.25};
    telemetry.energy = Joules{602.5};
    telemetry.capOvershoot = Joules{0.75};
    telemetry.maxLatencyP99 = 0.0125;

    fleet::ClusterEpochOutcome cluster;
    cluster.cluster = 1;
    cluster.budget = Watts{400.0};
    cluster.memberCap = Watts{100.0};
    cluster.tier = SolverTier::Hungarian;
    cluster.solverAttempts = 2;
    cluster.degradation.workShed = true;
    cluster.beThroughput = Rps{33.25};
    cluster.energy = Joules{602.5};
    cluster.meanDraw = Watts{120.5};
    cluster.capped = true;
    cluster.telemetry = telemetry;

    fleet::FleetEpoch epoch;
    epoch.load = 0.7;
    epoch.fleetBudget = Watts{400.0};
    epoch.clusters = {cluster};
    epoch.telemetry = telemetry;

    fleet::FleetRollup rollup;
    rollup.epochs = {epoch, epoch};
    rollup.totalBeThroughput = Rps{66.5};
    rollup.totalEnergy = Joules{1205.0};
    rollup.totalCapOvershoot = Joules{1.5};
    EXPECT_EQ(rollup.fingerprint(), 0x050c7671fb73c866ull);
}

TEST(FingerprintPins, Scenario)
{
    const scen::Scenario scenario = scen::Scenario::generate(
        scen::ScenarioSpec{}
            .withClusters(3)
            .withServersPerCluster(2)
            .withApps(1, 2)
            .withPlatformCount(2)
            .withRegions(2)
            .withEpochs(2)
            .withBeArrivals(3.0)
            .withFaultStorms(1, 10 * kMinute, 0.2)
            .withSeed(11));
    EXPECT_EQ(scenario.fingerprint(), 0x80040f90c7627e6bull);
}

} // namespace
} // namespace poco
