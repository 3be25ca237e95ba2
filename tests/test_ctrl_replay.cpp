/**
 * @file
 * The control plane's headline guarantee: replaying the same
 * EventLog produces a bit-identical CtrlRollup fingerprint for any
 * thread count and across consecutive replays, and the incremental
 * ladder is field-exact against the forceCold baseline event by
 * event, and the resident cell cache evaluates only the cells an
 * event changed. Runs under tier-ctrl and tier-tsan (the parallel
 * matrix builds over the shared cell cache are the shared-state
 * surface).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "ctrl/master_group.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/fleet_evaluator.hpp"
#include "runtime/thread_pool.hpp"
#include "sim/telemetry_rollup.hpp"
#include "util/check.hpp"
#include "wl/registry.hpp"

namespace poco::ctrl
{
namespace
{

/**
 * Synthetic cell model: a pure integer-mix hash of (be, server)
 * shaped by load. The avalanche finalizer keeps cell values
 * generically distinct (a bare xor-multiply leaves near-tie cycles
 * within solver tolerance at larger sizes), so optima are unique and
 * warm answers must equal cold ones exactly.
 */
double
syntheticCell(std::size_t be, std::size_t server, double load)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t w) {
        h ^= w;
        h *= 1099511628211ull;
    };
    mix(be + 1);
    mix(server + 17);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 31;
    const double base =
        static_cast<double>(h >> 11) * 0x1p-53 * 90.0 + 5.0;
    return base * (1.2 - load);
}

EventLogConfig
stormConfig(std::uint64_t seed)
{
    EventLogConfig config;
    config.horizon = 40 * kSecond;
    config.servers = 6;
    config.bePool = 5;
    config.loadShiftRate = 1.0;
    config.beChurnRate = 0.3;
    config.crashRate = 0.1;
    config.budgetChangeRate = 0.05;
    config.meanOutage = 6 * kSecond;
    config.seed = seed;
    return config;
}

ControlPlaneConfig
planeConfig()
{
    ControlPlaneConfig config;
    config.servers = 6;
    config.bePool = 5;
    config.initialBe = 4;
    config.initialLoad = 0.5;
    config.perServerBudget = Watts{90.0};
    config.heartbeat.periodTicks = kSecond;
    config.heartbeat.jitterTicks = kSecond / 10;
    config.heartbeat.suspectMisses = 2;
    config.heartbeat.deadMisses = 4;
    config.heartbeat.seed = 5;
    return config;
}

TEST(CtrlReplay, EventLogGenerationIsDeterministic)
{
    const EventLog a = EventLog::generate(stormConfig(21));
    const EventLog b = EventLog::generate(stormConfig(21));
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_FALSE(a.empty());
    EXPECT_GT(a.size(), 20u) << "storm config should be busy";

    const EventLog c = EventLog::generate(stormConfig(22));
    EXPECT_NE(a.fingerprint(), c.fingerprint());

    // Sorted, non-negative, within horizon.
    SimTime prev = 0;
    for (const ControlEvent& e : a.events()) {
        EXPECT_GE(e.tick, prev);
        EXPECT_LT(e.tick, stormConfig(21).horizon);
        prev = e.tick;
    }
}

TEST(CtrlReplay, ConsecutiveReplaysAreBitIdentical)
{
    const EventLog log = EventLog::generate(stormConfig(31));
    ControlPlane plane(syntheticCell, planeConfig());
    const auto first = plane.replay(log);
    const auto second = plane.replay(log);
    ASSERT_EQ(first.value.records.size(), second.value.records.size());
    EXPECT_EQ(first.value.fingerprint, second.value.fingerprint);
    EXPECT_EQ(first.value.livenessFingerprint,
              second.value.livenessFingerprint);
    EXPECT_EQ(first.tier, second.tier);
    EXPECT_EQ(first.attempts, second.attempts);
    EXPECT_GT(first.value.resolves, 0u);
}

TEST(CtrlReplay, ReplayIsBitIdenticalAcrossThreadCounts)
{
    const EventLog log = EventLog::generate(stormConfig(41));

    auto fingerprintWith = [&log](runtime::ThreadPool* pool) {
        cluster::SolverContext context;
        context.pool = pool;
        ControlPlane plane(syntheticCell, planeConfig(), context);
        return plane.replay(log).value.fingerprint;
    };

    const std::uint64_t serial = fingerprintWith(nullptr);
    runtime::ThreadPool pool(4);
    EXPECT_EQ(serial, fingerprintWith(&pool));
}

TEST(CtrlReplay, IncrementalMatchesForceColdFieldExactly)
{
    const EventLog log = EventLog::generate(stormConfig(51));

    ControlPlane incremental(syntheticCell, planeConfig());
    ControlPlaneConfig cold_config = planeConfig();
    cold_config.forceCold = true;
    ControlPlane cold(syntheticCell, cold_config);

    const auto inc = incremental.replay(log);
    const auto base = cold.replay(log);

    // Tiers and attempt counts legitimately differ (that is the
    // point); every *result* field must not.
    ASSERT_EQ(inc.value.records.size(), base.value.records.size());
    for (std::size_t i = 0; i < inc.value.records.size(); ++i) {
        const EventRecord& a = inc.value.records[i];
        const EventRecord& b = base.value.records[i];
        EXPECT_EQ(a.tick, b.tick);
        EXPECT_EQ(a.assignmentFingerprint, b.assignmentFingerprint)
            << "event " << i << " (" << eventKindName(a.kind) << ")";
        EXPECT_EQ(a.objective, b.objective) << "event " << i;
        EXPECT_EQ(a.activeBe, b.activeBe);
        EXPECT_EQ(a.placeableServers, b.placeableServers);
    }
    EXPECT_EQ(inc.value.livenessFingerprint,
              base.value.livenessFingerprint);

    // The ladder must be doing real incremental work.
    const cluster::IncrementalStats& stats = inc.value.solver;
    EXPECT_GT(stats.cached + stats.repaired + stats.warm, 0u);
}

TEST(CtrlReplay, TelemetryDeltasFlowThroughAggregator)
{
    const EventLog log = EventLog::generate(stormConfig(61));
    const ControlPlaneConfig config = planeConfig();
    ControlPlane plane(syntheticCell, config);

    sim::TelemetryAggregator sink(
        std::vector<std::size_t>(config.servers, 0), 1, nullptr,
        false);
    plane.attachTelemetry(&sink);
    const auto outcome = plane.replay(log);
    EXPECT_GT(sink.deltaPushes(), 0u)
        << "re-placements must push heartbeat-cadence deltas";

    const auto epochs = sink.drain();
    ASSERT_EQ(epochs.size(), 1u);
    EXPECT_GT(epochs[0].fleet.samples, 0u);
    EXPECT_GT(outcome.value.resolves, 0u);
}

/** syntheticCell behind a call counter (safe from any pool thread). */
CellModel
countingCell(std::atomic<std::size_t>& calls)
{
    return [&calls](std::size_t be, std::size_t server, double load) {
        calls.fetch_add(1, std::memory_order_relaxed);
        return syntheticCell(be, server, load);
    };
}

ControlEvent
event(SimTime tick, EventKind kind, int subject, double value = 0.0)
{
    ControlEvent e;
    e.tick = tick;
    e.kind = kind;
    e.subject = subject;
    e.value = value;
    return e;
}

TEST(CtrlReplay, CellCacheEvaluatesOnlyChangedCells)
{
    std::atomic<std::size_t> calls{0};
    runtime::ThreadPool pool(4);
    cluster::SolverContext context;
    context.pool = &pool;
    const ControlPlaneConfig config = planeConfig(); // 4 BEs, 6 servers
    ReplayEngine engine(countingCell(calls), config, context);

    // Applies one event and returns the cells it evaluated.
    auto cellsFor = [&](const ControlEvent& e) {
        const std::size_t before = calls.load();
        engine.apply(e);
        return calls.load() - before;
    };

    // The first solve fills the cache: every rows x alive cell.
    EXPECT_EQ(cellsFor(event(kSecond / 10, EventKind::LoadShift, 0,
                             0.3)),
              4u * 6u);
    // A LoadShift on one live server: exactly its column.
    EXPECT_EQ(cellsFor(event(2 * kSecond / 10, EventKind::LoadShift, 2,
                             0.7)),
              4u);
    // A budget change rescales resident cells: nothing re-evaluated.
    EXPECT_EQ(cellsFor(event(3 * kSecond / 10,
                             EventKind::BudgetChange, -1, 0.8)),
              0u);
    // A crash moves no cell until the ladder declares the death.
    EXPECT_EQ(cellsFor(event(4 * kSecond / 10, EventKind::ServerCrash,
                             3)),
              0u);
    // A new BE: its one row over every placeable server.
    EXPECT_EQ(cellsFor(event(5 * kSecond / 10, EventKind::BeArrive, -1)),
              6u);
    // Server 3 is dead by now; the shape change re-evaluates nothing
    // but the shifted server's column.
    EXPECT_EQ(cellsFor(event(8 * kSecond, EventKind::LoadShift, 1, 0.4)),
              5u);

    const auto outcome = engine.finish(10 * kSecond);
    ASSERT_EQ(outcome.value.records.size(), 6u);
    EXPECT_EQ(outcome.value.records.back().placeableServers, 5u);
    EXPECT_EQ(outcome.value.records.back().activeBe, 5u);
}

TEST(CtrlReplay, CellCacheKeepsFingerprintsAcrossThreadsAndFailover)
{
    const EventLog log = EventLog::generate(stormConfig(121));
    std::atomic<std::size_t> serial_calls{0};
    std::atomic<std::size_t> pooled_calls{0};

    ControlPlane serial(countingCell(serial_calls), planeConfig());
    const auto oracle = serial.replay(log);
    runtime::ThreadPool pool(4);
    cluster::SolverContext context;
    context.pool = &pool;
    ControlPlane pooled(countingCell(pooled_calls), planeConfig(),
                        context);
    EXPECT_EQ(pooled.replay(log).value.fingerprint,
              oracle.value.fingerprint);
    EXPECT_EQ(pooled_calls.load(), serial_calls.load())
        << "the cells evaluated must not depend on the thread count";

    // The successor restores a checkpoint with an empty cell cache and
    // must still reproduce the uninterrupted answers.
    MasterGroupConfig group;
    group.masters = 2;
    group.lease.periodTicks = kSecond;
    group.lease.jitterTicks = kSecond / 10;
    group.lease.suspectMisses = 2;
    group.lease.deadMisses = 4;
    group.lease.seed = 99;
    group.checkpointEvery = 8;
    fault::FaultWindow kill;
    kill.kind = fault::FaultKind::MasterKill;
    kill.server = 0;
    kill.start = 10 * kSecond;
    kill.end = 30 * kSecond;
    std::atomic<std::size_t> group_calls{0};
    MasterGroup masters(countingCell(group_calls), planeConfig(), group,
                        context);
    const auto failed_over =
        masters.run(log, fault::FaultPlan::fromWindows({kill}));
    ASSERT_GE(failed_over.value.failovers.size(), 1u);
    EXPECT_TRUE(failed_over.value.failovers[0].restored);
    EXPECT_EQ(failed_over.value.rollup.semanticFingerprint,
              oracle.value.semanticFingerprint);
}

TEST(CtrlReplay, RejectsInvalidConfigOnEveryEntryPoint)
{
    using Edit = void (*)(ControlPlaneConfig&);
    const Edit invalid[] = {
        [](ControlPlaneConfig& c) { c.servers = 0; },
        [](ControlPlaneConfig& c) { c.bePool = 0; },
        [](ControlPlaneConfig& c) { c.initialLoad = 0.0; },
        [](ControlPlaneConfig& c) { c.initialLoad = 1.5; },
        [](ControlPlaneConfig& c) {
            c.initialLoad = std::numeric_limits<double>::quiet_NaN();
        },
        [](ControlPlaneConfig& c) {
            c.backpressure.enabled = true;
            c.backpressure.window = 0;
        },
        [](ControlPlaneConfig& c) {
            c.backpressure.enabled = true;
            c.backpressure.resolveCost = 0;
        },
    };
    const CtrlCheckpoint valid =
        ReplayEngine(syntheticCell, planeConfig(), {}).checkpoint();
    for (std::size_t k = 0; k < std::size(invalid); ++k) {
        ControlPlaneConfig config = planeConfig();
        invalid[k](config);
        EXPECT_THROW(ControlPlane plane(syntheticCell, config),
                     FatalError)
            << "case " << k;
        EXPECT_THROW(MasterGroup group(syntheticCell, config,
                                       MasterGroupConfig{}),
                     FatalError)
            << "case " << k;
        EXPECT_THROW(ReplayEngine fresh(syntheticCell, config, {}),
                     FatalError)
            << "case " << k;
        EXPECT_THROW(
            ReplayEngine restored(syntheticCell, config, {}, valid),
            FatalError)
            << "case " << k;
    }

    // A checkpoint only restores under the shape it was taken in.
    ControlPlaneConfig wider = planeConfig();
    ++wider.servers;
    ControlPlaneConfig deeper = planeConfig();
    ++deeper.bePool;
    EXPECT_THROW(ReplayEngine restored(syntheticCell, wider, {}, valid),
                 FatalError);
    EXPECT_THROW(ReplayEngine restored(syntheticCell, deeper, {}, valid),
                 FatalError);

    // initialBe past the pool is clipped, not rejected: the run is
    // the one with every candidate active, on both entry points.
    const EventLog log = EventLog::generate(stormConfig(131));
    ControlPlaneConfig full = planeConfig();
    full.initialBe = full.bePool;
    ControlPlaneConfig over = full;
    over.initialBe = full.bePool + 3;
    fault::FaultWindow kill;
    kill.kind = fault::FaultKind::MasterKill;
    kill.server = 0;
    kill.start = 10 * kSecond;
    kill.end = 30 * kSecond;
    const fault::FaultPlan faults = fault::FaultPlan::fromWindows({kill});
    const auto planeRun = [&](const ControlPlaneConfig& config) {
        return ControlPlane(syntheticCell, config).replay(log).value;
    };
    const auto groupRun = [&](const ControlPlaneConfig& config) {
        return MasterGroup(syntheticCell, config, MasterGroupConfig{})
            .run(log, faults)
            .value;
    };
    EXPECT_EQ(planeRun(over).fingerprint, planeRun(full).fingerprint);
    const MasterGroupRollup group_over = groupRun(over);
    ASSERT_GE(group_over.failovers.size(), 1u);
    EXPECT_EQ(group_over.fingerprint, groupRun(full).fingerprint);
}

TEST(CtrlReplay, FaultPlanLowersToCrashRecoverPairs)
{
    std::vector<fault::FaultWindow> windows;
    fault::FaultWindow targeted;
    targeted.start = 2 * kSecond;
    targeted.end = 5 * kSecond;
    targeted.kind = fault::FaultKind::ServerCrash;
    targeted.server = 1;
    windows.push_back(targeted);
    fault::FaultWindow broadcast;
    broadcast.start = 8 * kSecond;
    broadcast.end = 9 * kSecond;
    broadcast.kind = fault::FaultKind::ServerCrash;
    broadcast.server = -1;
    windows.push_back(broadcast);
    fault::FaultWindow ignored;
    ignored.start = 1 * kSecond;
    ignored.end = 3 * kSecond;
    ignored.kind = fault::FaultKind::SensorBias;
    windows.push_back(ignored);

    const EventLog log = eventsFromFaultPlan(
        fault::FaultPlan::fromWindows(windows), 3);

    // One pair for the targeted window, one per server for the
    // broadcast; the sensor window is not the control plane's
    // business.
    ASSERT_EQ(log.size(), 8u);
    const auto& events = log.events();
    EXPECT_EQ(events[0].tick, 2 * kSecond);
    EXPECT_EQ(events[0].kind, EventKind::ServerCrash);
    EXPECT_EQ(events[0].subject, 1);
    EXPECT_EQ(events[1].tick, 5 * kSecond);
    EXPECT_EQ(events[1].kind, EventKind::ServerRecover);
    EXPECT_EQ(events[1].subject, 1);
    for (int s = 0; s < 3; ++s) {
        EXPECT_EQ(events[2 + s].tick, 8 * kSecond);
        EXPECT_EQ(events[2 + s].kind, EventKind::ServerCrash);
        EXPECT_EQ(events[2 + s].subject, s);
        EXPECT_EQ(events[5 + s].tick, 9 * kSecond);
        EXPECT_EQ(events[5 + s].kind, EventKind::ServerRecover);
        EXPECT_EQ(events[5 + s].subject, s);
    }

    // The lowered log replays deterministically like any other.
    ControlPlane plane(syntheticCell, planeConfig());
    EXPECT_EQ(plane.replay(log).value.fingerprint,
              plane.replay(log).value.fingerprint);
}

TEST(CtrlReplay, FleetRunStreamingIsDeterministic)
{
    wl::AppSet set = wl::defaultAppSet();
    std::vector<fleet::FleetServer> servers;
    for (std::size_t j = 0; j < 2; ++j)
        servers.push_back({&set, j, Watts{}});

    EventLogConfig log_config;
    log_config.horizon = 12 * kSecond;
    log_config.servers = 2;
    log_config.bePool = 3;
    log_config.loadShiftRate = 0.8;
    log_config.beChurnRate = 0.2;
    log_config.crashRate = 0.08;
    log_config.budgetChangeRate = 0.05;
    log_config.seed = 71;
    const EventLog log = EventLog::generate(log_config);

    FleetConfig base = FleetConfig{}
                           .withLoadPoints({0.3, 0.7})
                           .withDwell(20 * kSecond)
                           .withHeraclesReplicas(1)
                           .withSeed(9)
                           .withHeartbeat(kSecond, kSecond / 10, 2, 4)
                           .withStreaming(0.5, false);

    FleetConfig serial = base;
    serial.threads = 1;
    const fleet::FleetEvaluator one(servers, serial);
    FleetConfig pooled = base;
    pooled.threads = 4;
    const fleet::FleetEvaluator four(servers, pooled);

    const auto a = one.runStreaming(log);
    const auto b = one.runStreaming(log);
    const auto c = four.runStreaming(log);
    EXPECT_EQ(a.value.fingerprint, b.value.fingerprint)
        << "consecutive streaming replays must agree";
    EXPECT_EQ(a.value.fingerprint, c.value.fingerprint)
        << "thread count must not move a single result bit";
    EXPECT_FALSE(a.value.records.empty());
}

} // namespace
} // namespace poco::ctrl
