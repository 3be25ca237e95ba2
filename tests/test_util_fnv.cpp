/**
 * @file
 * The shared FNV-1a helper (util/fnv.hpp) against published test
 * vectors, and every public fingerprint pinned to a fixed value on a
 * fixed small input. The fingerprints are the repo's behavioural contract (the
 * identity tests, the bench gates and the recorded benchmark hashes
 * compare them), so a refactor of the hash plumbing must reproduce
 * each one bit for bit. A pinned value changes only when the hashed
 * content or the hash construction changes on purpose.
 *
 * FingerprintPins.SimplexBasis and AssignmentLpBases pin the
 * assignment LP's tableau: its basis after cold and warm solves on
 * square, rectangular, tied and random matrices.
 *
 * FingerprintPins.ServerScenario pins a simulated server run the same
 * way: every statistic and telemetry sample of a short managed run
 * under POM, under Heracles, and under POM with the watchdog armed.
 * A speed-up of the server simulation must leave all three unmoved.
 * The pins after it cover the rest of the tick order: seeded fault
 * plans whose edges fall off the 100 ms grid, a load spike opening
 * at t = 0, every control period the ablation sweeps (and two more),
 * the time-shared BE schedules and the spatial-share runner; the
 * fault-plan and control-period pins also check that each run's
 * steady rollup is the fold of its own kept samples. The next
 * pin drives one POM controller directly through every way its demand
 * target can repeat or move, so a search skipped on a repeated target
 * must return what a fresh search would. The last pins the fitted
 * utilities every pin above is built on, and the OLS kernel under
 * them, so a change to the regression arithmetic shows at its source.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "ctrl/heartbeat.hpp"
#include "ctrl/master_group.hpp"
#include "fault/fault_plan.hpp"
#include "flat_matrix.hpp"
#include "fleet/fleet_evaluator.hpp"
#include "math/regression.hpp"
#include "math/simplex.hpp"
#include "model/demand.hpp"
#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "rollup_expect.hpp"
#include "scen/scenario.hpp"
#include "server/be_schedule.hpp"
#include "server/colocated_server.hpp"
#include "server/primary_controller.hpp"
#include "server/server_manager.hpp"
#include "server/spatial_share.hpp"
#include "sim/telemetry_rollup.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "wl/registry.hpp"

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

/**
 * FNV-1a over an assignment-LP solver's retained basis and answer,
 * after a cold solve of @p value and after one warm re-solve of a
 * copy with every third cell raised by its column index.
 */
std::uint64_t
assignmentLpPin(test::FlatMatrix value)
{
    math::AssignmentLpSolver solver;
    std::uint64_t h = fnv::kOffset;
    const auto mix = [&](const std::optional<std::vector<int>>& answer) {
        fnv::mixWord(h, solver.hasBasis(value.rows, value.cols));
        for (const std::size_t var : solver.basis())
            fnv::mixWord(h, var);
        if (answer.has_value())
            for (const int j : *answer)
                fnv::mixWord(h, static_cast<std::uint64_t>(j));
    };
    mix(solver.solveCold(value));
    for (std::size_t k = 0; k < value.cells.size(); k += 3)
        value.cells[k] += static_cast<double>(k % value.cols);
    mix(solver.solveWarm(value));
    return h;
}

TEST(FingerprintPins, AssignmentLpBases)
{
    // The basis names tableau columns row by row, so these pin the
    // tableau's row and column layout, not only the answers.
    EXPECT_EQ(assignmentLpPin(test::flat({{4.0, 9.0, 2.0, 7.0, 1.0},
                                          {8.0, 3.0, 6.0, 2.0, 5.0},
                                          {1.0, 7.0, 9.0, 4.0, 3.0}})),
              0x0654bf2ed8f3910bull);

    Rng rng(28);
    test::FlatMatrix tied(8, 8);
    for (double& v : tied.cells)
        v = rng.uniformInt(0, 3);
    EXPECT_EQ(assignmentLpPin(tied), 0x7f13fcc7ff2feb13ull);

    test::FlatMatrix random(16, 16);
    for (double& v : random.cells)
        v = rng.uniform(0.0, 100.0);
    EXPECT_EQ(assignmentLpPin(random), 0xd8b64a1a8a1a1377ull);
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

void
mixAllocation(std::uint64_t& h, const sim::Allocation& alloc)
{
    fnv::mixWord(h, static_cast<std::uint64_t>(alloc.cores));
    fnv::mixWord(h, static_cast<std::uint64_t>(alloc.ways));
    fnv::mixDouble(h, alloc.freq.value());
    fnv::mixDouble(h, alloc.dutyCycle);
}

void
mixStats(std::uint64_t& h, const server::ServerStats& stats)
{
    fnv::mixWord(h, static_cast<std::uint64_t>(stats.elapsed));
    fnv::mixDouble(h, stats.energyJoules.value());
    fnv::mixDouble(h, stats.beWorkDone);
    fnv::mixWord(h, static_cast<std::uint64_t>(stats.sloViolationTime));
    fnv::mixWord(h, static_cast<std::uint64_t>(stats.cappedTime));
    fnv::mixDouble(h, stats.maxPower.value());
    fnv::mixDouble(h, stats.capOvershootJoules.value());
}

/** Every field a managed server run reports, telemetry included. */
std::uint64_t
runFingerprint(const server::ServerRunResult& run)
{
    std::uint64_t h = fnv::kOffset;
    mixStats(h, run.stats);
    fnv::mixDouble(h, run.powerUtilization);
    fnv::mixDouble(h, run.averageSlack);
    fnv::mixDouble(h, run.slackShortfallFraction);
    const server::FaultRunStats& faults = run.faults;
    for (const long count :
         {faults.degradedTicks, faults.degradedEntries, faults.evictions,
          faults.invalidReadings, faults.unconfirmedTicks, faults.probes})
        fnv::mixWord(h, static_cast<std::uint64_t>(count));
    fnv::mixDouble(h, faults.capOvershootJoules.value());
    fnv::mixDouble(h, faults.maxOvershoot.value());
    fnv::mixWord(h, run.telemetry.size());
    for (const sim::TelemetrySample& sample : run.telemetry) {
        fnv::mixWord(h, static_cast<std::uint64_t>(sample.when));
        fnv::mixDouble(h, sample.lcLoad.value());
        fnv::mixDouble(h, sample.lcLatencyP95);
        fnv::mixDouble(h, sample.lcLatencyP99);
        mixAllocation(h, sample.lcAlloc);
        fnv::mixDouble(h, sample.beThroughput.value());
        mixAllocation(h, sample.beAlloc);
        fnv::mixDouble(h, sample.power.value());
    }
    return h;
}

/** The run's steady rollup is the fold of its own kept samples. */
void
expectSteadyIsTheFold(const server::ServerRunResult& run, Watts cap,
                      SimTime warmup, SimTime duration)
{
    ASSERT_FALSE(run.telemetry.empty());
    EXPECT_GT(run.steady.samples, 0u);
    test::expectSameRollup(run.steady,
                           sim::foldTelemetry(run.telemetry, cap, warmup,
                                              duration));
}

TEST(FingerprintPins, ServerScenario)
{
    const wl::AppSet set = wl::defaultAppSet();
    const wl::LcApp& lc = set.lcByName("xapian");
    const wl::BeApp& be = set.beByName("graph");
    const model::CobbDouglasUtility utility =
        model::UtilityFitter{}.fit(model::Profiler{}.profileLc(lc));
    const wl::LoadTrace trace =
        wl::LoadTrace::stepped({0.3, 0.8, 0.5, 0.1}, 25 * kSecond);
    const SimTime duration = 160 * kSecond;
    server::ServerManagerConfig config;
    config.keepTelemetry = true;

    const auto run = [&](std::unique_ptr<server::PrimaryController> brain,
                         const fault::FaultPlan* faults) {
        return server::runServerScenario(lc, &be, lc.provisionedPower(),
                                         std::move(brain), trace,
                                         duration, config, faults);
    };

    const auto pom =
        run(std::make_unique<server::PomController>(utility), nullptr);
    EXPECT_EQ(runFingerprint(pom), 0x145eb358322c8372ull);

    const auto heracles = run(
        std::make_unique<server::HeraclesController>(/*seed=*/5), nullptr);
    EXPECT_EQ(runFingerprint(heracles), 0xbdfeca6a045c85a0ull);

    // A dropout degrades the watchdog and lets it recover; a frozen
    // meter later draws its DVFS probes.
    const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
        {{70 * kSecond, 75 * kSecond, fault::FaultKind::SensorDropout,
          0.0, 0},
         {100 * kSecond, 150 * kSecond, fault::FaultKind::SensorStuck,
          0.0, 0}});
    const auto guarded =
        run(std::make_unique<server::PomController>(utility), &faults);
    EXPECT_GE(guarded.faults.degradedEntries, 1);
    EXPECT_GE(guarded.faults.probes, 1);
    EXPECT_EQ(runFingerprint(guarded), 0xc5580f0fd9de89a9ull);
}

const wl::AppSet&
pinApps()
{
    static const wl::AppSet set = wl::defaultAppSet();
    return set;
}

/** The fitted xapian model every POM pin below drives. */
const model::CobbDouglasUtility&
xapianUtility()
{
    static const model::CobbDouglasUtility utility =
        model::UtilityFitter{}.fit(
            model::Profiler{}.profileLc(pinApps().lcByName("xapian")));
    return utility;
}

std::unique_ptr<server::PrimaryController>
xapianPom()
{
    return std::make_unique<server::PomController>(xapianUtility());
}

bool
offGrid(SimTime t)
{
    return t % server::ServerManager::kTick != 0;
}

TEST(FingerprintPins, ServerRunsUnderGeneratedFaultPlans)
{
    // Twelve seeded plans over all six server-level kinds. Their
    // edges fall between 100 ms ticks, windows of different kinds
    // overlap, and the warm-up and duration are off the grid too.
    constexpr std::uint64_t kPins[] = {
        0x12d459ad75f962c5ull, 0xc5d8029c2556efabull, 0xa4d1b7947bf947a9ull,
        0xbff7924dc02b859dull, 0x9d6810f97b0d547bull, 0xa5f01fa7791ec566ull,
        0x667c4b07f9cbd9b3ull, 0x1ad41065e9f7fb7aull, 0x2a5481d92a948c84ull,
        0x1ce38eaf2e3c8972ull, 0x52e1e31562e14b69ull, 0x6791427b3adfbde1ull};
    const wl::LcApp& lc = pinApps().lcByName("xapian");
    const wl::BeApp& be = pinApps().beByName("graph");
    const wl::LoadTrace trace =
        wl::LoadTrace::stepped({0.3, 0.8, 0.5}, 13 * kSecond);
    const SimTime duration = 40 * kSecond + 250013;
    server::ServerManagerConfig config;
    config.warmup = 7 * kSecond + 130017;
    config.keepTelemetry = true;

    std::set<fault::FaultKind> kinds;
    bool off_grid_edge = false;
    bool overlap = false;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        fault::FaultPlanConfig faults;
        faults.horizon = duration;
        faults.sensorStuckRate = 3.0;
        faults.sensorDropoutRate = 3.0;
        faults.sensorBiasRate = 3.0;
        faults.actuatorStuckRate = 3.0;
        faults.telemetryStaleRate = 3.0;
        faults.loadSpikeRate = 3.0;
        faults.meanDuration = 4 * kSecond;
        faults.seed = seed;
        const fault::FaultPlan plan = fault::FaultPlan::generate(faults);
        const auto& windows = plan.windows();
        for (std::size_t i = 0; i < windows.size(); ++i) {
            kinds.insert(windows[i].kind);
            off_grid_edge = off_grid_edge || offGrid(windows[i].start) ||
                            offGrid(windows[i].end);
            if (i > 0 && windows[i].start < windows[i - 1].end)
                overlap = true;
        }
        const auto run = server::runServerScenario(
            lc, &be, lc.provisionedPower(), xapianPom(), trace,
            duration, config, &plan);
        EXPECT_EQ(runFingerprint(run), kPins[seed - 1])
            << "seed " << seed;
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        expectSteadyIsTheFold(run, lc.provisionedPower(), config.warmup,
                              duration);
    }
    EXPECT_EQ(kinds.size(), 6u);
    EXPECT_TRUE(off_grid_edge);
    EXPECT_TRUE(overlap);
}

TEST(FingerprintPins, LoadSpikeOpeningAtTimeZero)
{
    // The initial load is applied before the window's t = 0 edge, so
    // the first second runs unspiked and the spike lands with the
    // 1 s load tick.
    const wl::LcApp& lc = pinApps().lcByName("xapian");
    const fault::FaultPlan spike = fault::FaultPlan::fromWindows(
        {{0, 5 * kSecond + 50000, fault::FaultKind::LoadSpike, 0.5,
          0}});
    server::ServerManagerConfig config;
    config.warmup = 2 * kSecond;
    config.keepTelemetry = true;
    const auto run = server::runServerScenario(
        lc, &pinApps().beByName("graph"), lc.provisionedPower(),
        xapianPom(), wl::LoadTrace::constant(0.4), 12 * kSecond,
        config, &spike);
    ASSERT_GE(run.telemetry.size(), 10u);
    const double peak = lc.peakLoad().value();
    EXPECT_EQ(run.telemetry[0].when, 100 * kMillisecond);
    EXPECT_DOUBLE_EQ(run.telemetry[0].lcLoad.value(), 0.4 * peak);
    EXPECT_EQ(run.telemetry[9].when, 1 * kSecond);
    EXPECT_DOUBLE_EQ(run.telemetry[9].lcLoad.value(),
                     0.4 * 1.5 * peak);
    EXPECT_EQ(runFingerprint(run), 0xabf0759861e67e39ull);
}

TEST(FingerprintPins, ServerRunsAcrossControlPeriods)
{
    // The load changes at every 1 s tick. Where a control tick
    // coincides with it, the longer-period loop runs first: control
    // precedes load only for the 1.5 s and 4 s periods.
    const std::pair<SimTime, std::uint64_t> kPins[] = {
        {500 * kMillisecond, 0xbf8a17ceb4c44892ull},
        {700 * kMillisecond, 0x44635ace268b075full},
        {1 * kSecond, 0xccffd18f2b13d590ull},
        {1500 * kMillisecond, 0x94dddbd5bce863e7ull},
        {4 * kSecond, 0x6de0d58f2c9aec34ull}};
    const wl::LcApp& lc = pinApps().lcByName("xapian");
    const wl::LoadTrace trace =
        wl::LoadTrace::stepped({0.3, 0.8, 0.5, 0.1, 0.6}, 1 * kSecond);
    for (const auto& [period, pin] : kPins) {
        server::ServerManagerConfig config;
        config.controlPeriod = period;
        config.warmup = 5 * kSecond;
        config.keepTelemetry = true;
        const auto run = server::runServerScenario(
            lc, &pinApps().beByName("graph"), lc.provisionedPower(),
            xapianPom(), trace, 40 * kSecond, config);
        EXPECT_EQ(runFingerprint(run), pin)
            << "control period " << period;
        SCOPED_TRACE(::testing::Message() << "control period " << period);
        expectSteadyIsTheFold(run, lc.provisionedPower(), config.warmup,
                              40 * kSecond);
    }
}

TEST(FingerprintPins, BeSchedules)
{
    // Each policy once with a deadline every job meets and once with
    // an off-grid deadline that cuts the schedule short.
    struct Pin
    {
        server::SchedulePolicy policy;
        SimTime deadline;
        bool allFinished;
        std::uint64_t value;
    };
    const SimTime long_deadline = 10 * kMinute;
    const SimTime cut = 95 * kSecond + 50 * kMillisecond;
    const Pin kPins[] = {
        {server::SchedulePolicy::Fcfs, long_deadline, true,
         0x5d3e10b01fcfb757ull},
        {server::SchedulePolicy::Fcfs, cut, false, 0xf7119aa268afe038ull},
        {server::SchedulePolicy::Sjf, long_deadline, true,
         0xe106a77cfe32e571ull},
        {server::SchedulePolicy::Sjf, cut, false, 0x166a0a69f36e98fcull},
        {server::SchedulePolicy::RoundRobin, long_deadline, true,
         0xc19e2d01e45c5f78ull},
        {server::SchedulePolicy::RoundRobin, cut, false,
         0x7b715991035090bbull}};
    const wl::LcApp& lc = pinApps().lcByName("xapian");
    for (const Pin& pin : kPins) {
        server::SchedulerConfig config;
        config.policy = pin.policy;
        config.quantum = 3 * kSecond;
        const std::vector<server::BeJob> jobs = {
            {"big-graph", &pinApps().beByName("graph"), 60.0},
            {"small-lstm", &pinApps().beByName("lstm"), 10.0},
            {"mid-pbzip2", &pinApps().beByName("pbzip2"), 30.0}};
        const server::ScheduleResult result = server::runBeSchedule(
            lc, jobs, lc.provisionedPower(), xapianPom(),
            wl::LoadTrace::stepped({0.2, 0.6, 0.4}, 30 * kSecond),
            pin.deadline, config);
        EXPECT_EQ(result.allFinished, pin.allFinished);
        std::uint64_t h = fnv::kOffset;
        for (const server::JobOutcome& job : result.jobs) {
            fnv::mixString(h, job.name);
            fnv::mixWord(h, static_cast<std::uint64_t>(job.completion));
            fnv::mixDouble(h, job.workDone);
        }
        fnv::mixWord(h, static_cast<std::uint64_t>(result.makespan));
        mixStats(h, result.stats);
        fnv::mixWord(h, result.allFinished ? 1u : 0u);
        EXPECT_EQ(h, pin.value)
            << server::schedulePolicyName(pin.policy) << " deadline "
            << pin.deadline;
    }
}

TEST(FingerprintPins, SpatialShare)
{
    const wl::LcApp& lc = pinApps().lcByName("sphinx");
    const model::Profiler profiler;
    const model::UtilityFitter fitter;
    const model::CobbDouglasUtility graph = fitter.fit(
        profiler.profileBe(pinApps().beByName("graph")));
    const model::CobbDouglasUtility lstm =
        fitter.fit(profiler.profileBe(pinApps().beByName("lstm")));
    const server::SpatialPlan plan = server::planSpatialShare(
        {&graph, &lstm}, 9, 13, Watts{90.0}, lc.spec());
    server::ServerManagerConfig config;
    config.warmup = 20 * kSecond;
    const server::SpatialRunResult result = server::runSpatialShare(
        lc, {&pinApps().beByName("graph"), &pinApps().beByName("lstm")},
        plan.slices, lc.provisionedPower(),
        std::make_unique<server::PomController>(fitter.fit(
            profiler.profileLc(lc))),
        0.2, 50 * kSecond, config);
    std::uint64_t h = fnv::kOffset;
    mixStats(h, result.stats);
    for (const double throughput : result.throughput)
        fnv::mixDouble(h, throughput);
    fnv::mixDouble(h, result.totalThroughput);
    EXPECT_EQ(h, 0xabf2a60682de4d77ull);
}

TEST(FingerprintPins, PomDecisionsAcrossTargetChanges)
{
    // One POM controller over one server, through every way its
    // demand target can repeat or move. The allocation the primary
    // holds sets the slack: the full server leaves slack to spare, a
    // single core and way falls short.
    const wl::LcApp& lc = pinApps().lcByName("xapian");
    const sim::ServerSpec& spec = lc.spec();
    const model::AllocationGrid grid(xapianUtility(), spec);
    const double peak = lc.peakLoad().value();
    const sim::Allocation full{spec.cores, spec.llcWays, spec.freqMax,
                               1.0};
    const sim::Allocation starved{1, 1, spec.freqMax, 1.0};
    server::PomController pom(xapianUtility());
    server::ColocatedServer server(lc, &pinApps().beByName("graph"),
                                   lc.provisionedPower());
    SimTime now = 0;
    std::uint64_t h = fnv::kOffset;
    const auto decide = [&](double load, const sim::Allocation& held) {
        now += kSecond;
        server.setLoad(now, Rps{load});
        server.setPrimaryAlloc(now, held);
        const sim::Allocation alloc = pom.decide(server);
        mixAllocation(h, alloc);
        return alloc;
    };

    // Repeated decisions at one load.
    for (int i = 0; i < 3; ++i)
        decide(0.4 * peak, full);

    // A load equal to a cell's exact modeled performance, then one
    // ulp above it, where that cell is no longer feasible.
    const auto cell = grid.minPowerFor(0.55 * peak);
    ASSERT_TRUE(cell.has_value());
    const double exact =
        grid.perfAt(cell->alloc.cores, cell->alloc.ways);
    const sim::Allocation at = decide(exact, full);
    const sim::Allocation above =
        decide(std::nextafter(exact, 2.0 * exact), full);
    EXPECT_FALSE(above == at);

    // Targets A -> B -> A.
    decide(0.3 * peak, full);
    decide(0.7 * peak, full);
    decide(0.3 * peak, full);

    // Beyond the modeled capacity there is no plan, so the primary
    // gets the full server; then back down.
    double capacity = 0.0;
    for (int c = 1; c <= spec.cores; ++c)
        for (int w = 1; w <= spec.llcWays; ++w)
            capacity = std::max(capacity, grid.perfAt(c, w));
    EXPECT_TRUE(decide(1.2 * capacity, full) == full);
    EXPECT_TRUE(decide(1.2 * capacity, full) == full);
    decide(0.5 * peak, full);

    // A slack shortfall at a constant load: each decision raises the
    // feedback boost, and so the target.
    const sim::Allocation first = decide(0.5 * peak, starved);
    sim::Allocation last = first;
    for (int i = 0; i < 5; ++i)
        last = decide(0.5 * peak, starved);
    EXPECT_FALSE(last == first);

    EXPECT_EQ(h, 0xf58107a7ec231241ull);
}

void
mixUtility(std::uint64_t& h, const model::CobbDouglasUtility& utility)
{
    fnv::mixDouble(h, utility.logA0());
    for (const double alpha : utility.alpha())
        fnv::mixDouble(h, alpha);
    fnv::mixDouble(h, utility.pStatic().value());
    for (const double p : utility.pCoef())
        fnv::mixDouble(h, p);
    fnv::mixDouble(h, utility.perfR2);
    fnv::mixDouble(h, utility.powerR2);
}

TEST(FingerprintPins, FittedUtilities)
{
    // Every default app profiled and fitted at two noise seeds.
    std::uint64_t h = fnv::kOffset;
    const model::UtilityFitter fitter;
    for (const std::uint64_t seed : {42u, 7u}) {
        model::ProfilerConfig config;
        config.seed = seed;
        const model::Profiler profiler(config);
        for (const wl::LcApp& lc : pinApps().lc)
            mixUtility(h, fitter.fit(profiler.profileLc(lc)));
        for (const wl::BeApp& be : pinApps().be)
            mixUtility(h, fitter.fit(profiler.profileBe(be)));
    }
    EXPECT_EQ(h, 0x7ec90944389edae5ull);

    // The OLS kernel alone on one design with a zero entry and
    // predictors of mixed scale, with and without an intercept.
    const test::FlatMatrix design = test::flat({{3.0, 0.0, 12.5},
                                                {1.0, -2.0, 9.0},
                                                {4.5, 1.5, 0.0},
                                                {2.0, 3.0, 17.25},
                                                {0.5, -1.0, 4.0},
                                                {6.0, 2.5, 21.0},
                                                {3.5, -0.5, 7.75}});
    const std::vector<double> y = {14.2, 6.1, 9.8, 25.3, 2.9, 33.4, 12.6};
    const std::pair<bool, std::uint64_t> kOls[] = {
        {true, 0x0d8d5122d2055352ull}, {false, 0x52673992d937b1a7ull}};
    for (const auto& [intercept, pin] : kOls) {
        const math::OlsResult fit = math::fitOls(design, y, intercept);
        std::uint64_t g = fnv::kOffset;
        for (const double coefficient : fit.coefficients)
            fnv::mixDouble(g, coefficient);
        fnv::mixDouble(g, fit.r_squared);
        fnv::mixDouble(g, fit.rss);
        EXPECT_EQ(g, pin) << "intercept " << intercept;
    }
}

} // namespace
} // namespace poco
