/**
 * @file
 * Deterministic chaos harness for the control plane (DESIGN.md §15):
 * master failover must preserve every budget milliwatt, never
 * double-grant, bound staleness, and match an uninterrupted oracle
 * run on the semantic fingerprint; backpressure must bound the
 * admission queue, shed to the Conservative tier, coalesce
 * superseded events last-wins, and stay bit-identical for any
 * thread count. Runs under tier-chaos, tier-ctrl, and tier-tsan
 * (the parallel matrix builds over the engine's cell cache are the
 * shared-state surface the storm scenarios hammer).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "ctrl/master_group.hpp"
#include "fault/fault_plan.hpp"
#include "fleet/fleet_evaluator.hpp"
#include "fleet/scenario_fleet.hpp"
#include "runtime/thread_pool.hpp"
#include "util/milliwatts.hpp"
#include "wl/registry.hpp"

namespace poco::ctrl
{
namespace
{

/** Same synthetic cell as test_ctrl_replay: avalanche-finalized so
 *  optima are unique and warm answers must equal cold ones. */
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

MasterGroupConfig
groupConfig()
{
    MasterGroupConfig group;
    group.masters = 2;
    group.lease.periodTicks = kSecond;
    group.lease.jitterTicks = kSecond / 10;
    group.lease.suspectMisses = 2;
    group.lease.deadMisses = 4;
    group.lease.seed = 99;
    group.checkpointEvery = 8;
    return group;
}

fault::FaultWindow
masterWindow(fault::FaultKind kind, int master, SimTime start,
             SimTime end)
{
    fault::FaultWindow w;
    w.kind = kind;
    w.server = master;
    w.start = start;
    w.end = end;
    return w;
}

/** The uninterrupted single-master run every invariant compares
 *  against. */
Outcome<CtrlRollup>
oracleRun(const EventLog& log,
          const ControlPlaneConfig& config = planeConfig())
{
    ControlPlane plane(syntheticCell, config);
    return plane.replay(log);
}

// ---- replay-from-LSN seams ------------------------------------

TEST(CtrlChaos, CheckpointRoundTripPreservesFingerprint)
{
    const EventLog log = EventLog::generate(stormConfig(101));
    const ControlPlaneConfig config = planeConfig();

    ReplayEngine engine(syntheticCell, config, {});
    const std::size_t cut = log.size() / 2;
    for (std::size_t i = 0; i < cut; ++i)
        engine.apply(log.events()[i]);

    const CtrlCheckpoint saved = engine.checkpoint();
    EXPECT_EQ(saved.lsn, cut);

    // Restoring and immediately re-checkpointing must round-trip
    // every field bit-for-bit (the solver state is not part of the
    // checkpoint, so nothing cold-vs-warm can leak in).
    ReplayEngine restored(syntheticCell, config, {}, saved);
    EXPECT_EQ(restored.applied(), cut);
    EXPECT_EQ(restored.checkpoint().fingerprint(),
              saved.fingerprint());
}

TEST(CtrlChaos, ReplayFromLsnMatchesOracle)
{
    // Cut at every LSN of two logs: a plain storm, and a
    // backpressured one dense enough to shed, so that cuts land with
    // re-solves in flight and with shed debt outstanding.
    EventLogConfig dense = stormConfig(171);
    dense.loadShiftRate = 8.0;
    ControlPlaneConfig throttled = planeConfig();
    throttled.backpressure.enabled = true;
    throttled.backpressure.window = 3;
    throttled.backpressure.resolveCost = 400 * kMillisecond;

    const std::vector<std::pair<EventLog, ControlPlaneConfig>> cases = {
        {EventLog::generate(stormConfig(111)), planeConfig()},
        {EventLog::generate(dense), throttled}};
    bool saved_pending = false;
    bool saved_debt = false;
    for (const auto& [log, config] : cases) {
        const CtrlRollup oracle = oracleRun(log, config).value;
        ReplayEngine primary(syntheticCell, config, {});
        for (std::size_t lsn = 0; lsn <= log.size(); ++lsn) {
            if (lsn > 0)
                primary.apply(log.events()[lsn - 1]);
            const CtrlCheckpoint saved = primary.checkpoint();
            saved_pending = saved_pending || !saved.pending.empty();
            saved_debt = saved_debt || saved.dirtySheds > 0;

            ReplayEngine restored(syntheticCell, config, {}, saved);
            ASSERT_EQ(restored.checkpoint().fingerprint(),
                      saved.fingerprint())
                << "restored at LSN " << lsn;
            for (std::size_t i = lsn; i < log.size(); ++i)
                restored.apply(log.events()[i]);
            const CtrlRollup roll =
                restored.finish(log.horizon()).value;

            ASSERT_EQ(roll.records.size(), log.size())
                << "restored at LSN " << lsn;
            EXPECT_EQ(roll.semanticFingerprint,
                      oracle.semanticFingerprint)
                << "restored at LSN " << lsn;
            EXPECT_EQ(roll.livenessFingerprint,
                      oracle.livenessFingerprint);
            EXPECT_EQ(toMilliwatts(roll.budgetPool),
                      toMilliwatts(oracle.budgetPool))
                << "budget must survive the handoff to the milliwatt";
            EXPECT_EQ(roll.sheds, oracle.sheds);
            EXPECT_EQ(roll.coalesced, oracle.coalesced);
            EXPECT_EQ(roll.maxQueueDepth, oracle.maxQueueDepth);
            if (lsn == log.size()) {
                // Nothing was re-solved cold, so even the
                // tier-bearing full fingerprint must match.
                EXPECT_EQ(roll.fingerprint, oracle.fingerprint);
            }
        }
    }
    EXPECT_TRUE(saved_pending)
        << "no cut saved a re-solve in flight";
    EXPECT_TRUE(saved_debt) << "no cut saved shed debt";
}

// ---- master failover (tentpole) ---------------------------------

TEST(CtrlChaos, MasterKillFailoverMatchesOracle)
{
    const EventLog log = EventLog::generate(stormConfig(121));
    const auto oracle = oracleRun(log);

    // Kill the primary mid-storm, long enough for the lease ladder
    // to declare it dead (deadMisses * period ~ 4 s).
    const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
        {masterWindow(fault::FaultKind::MasterKill, 0, 10 * kSecond,
                      30 * kSecond)});

    MasterGroup group(syntheticCell, planeConfig(), groupConfig());
    const auto outcome = group.run(log, faults);
    const MasterGroupRollup& roll = outcome.value;

    ASSERT_GE(roll.failovers.size(), 1u);
    EXPECT_EQ(roll.failovers[0].fromMaster, 0);
    EXPECT_EQ(roll.failovers[0].toMaster, 1);
    EXPECT_TRUE(roll.failovers[0].restored)
        << "a killed primary's successor restores from checkpoint";
    EXPECT_GT(roll.failovers[0].catchUpEvents, 0u);
    EXPECT_GT(roll.checkpoints, 1u);

    // P-ladder invariants: every event exactly once, budget exact
    // to the milliwatt, liveness history identical, and the whole
    // semantic result equal to the uninterrupted oracle.
    ASSERT_EQ(roll.rollup.records.size(), log.size());
    EXPECT_EQ(roll.rollup.semanticFingerprint,
              oracle.value.semanticFingerprint);
    EXPECT_EQ(roll.rollup.livenessFingerprint,
              oracle.value.livenessFingerprint);
    EXPECT_EQ(toMilliwatts(roll.rollup.budgetPool),
              toMilliwatts(oracle.value.budgetPool));
    // Staleness is bounded by the outage, not the log.
    EXPECT_LT(roll.maxStalenessEvents, log.size());
}

TEST(CtrlChaos, MasterPauseCatchesUpWarmWithoutFailover)
{
    const EventLog log = EventLog::generate(stormConfig(131));
    const auto oracle = oracleRun(log);

    // A 3 s pause stays under the dead threshold (4 misses at 1 s
    // cadence), so the lease survives and the same master drains
    // its backlog warm when the pause lifts.
    const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
        {masterWindow(fault::FaultKind::MasterPause, 0, 12 * kSecond,
                      15 * kSecond)});

    MasterGroup group(syntheticCell, planeConfig(), groupConfig());
    const auto outcome = group.run(log, faults);
    const MasterGroupRollup& roll = outcome.value;

    EXPECT_TRUE(roll.failovers.empty())
        << "a sub-threshold pause must not lose the lease";
    EXPECT_GT(roll.maxStalenessEvents, 0u)
        << "the pause must have built a real backlog";
    ASSERT_EQ(roll.rollup.records.size(), log.size());
    // The engine never restarted, so even tier counters — the full
    // fingerprint — must match the uninterrupted run.
    EXPECT_EQ(roll.rollup.fingerprint, oracle.value.fingerprint);
}

TEST(CtrlChaos, TotalOutageDrainsAtShutdown)
{
    const EventLog log = EventLog::generate(stormConfig(141));
    const auto oracle = oracleRun(log);

    // Both masters killed for the rest of the log: events stall in
    // the log until shutdown recovery restores from the last
    // checkpoint and drains everything.
    const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
        {masterWindow(fault::FaultKind::MasterKill, 0, 10 * kSecond,
                      45 * kSecond),
         masterWindow(fault::FaultKind::MasterKill, 1, 10 * kSecond,
                      45 * kSecond)});

    MasterGroup group(syntheticCell, planeConfig(), groupConfig());
    const auto outcome = group.run(log, faults);
    const MasterGroupRollup& roll = outcome.value;

    ASSERT_EQ(roll.rollup.records.size(), log.size())
        << "shutdown recovery must drain the whole log";
    EXPECT_GE(roll.failovers.size(), 1u);
    EXPECT_TRUE(roll.failovers.back().restored);
    EXPECT_GT(roll.maxStalenessEvents, 0u);
    EXPECT_EQ(roll.rollup.semanticFingerprint,
              oracle.value.semanticFingerprint);
    EXPECT_EQ(toMilliwatts(roll.rollup.budgetPool),
              toMilliwatts(oracle.value.budgetPool));
}

TEST(CtrlChaos, ChaosRunIsBitIdenticalAcrossThreadCounts)
{
    const EventLog log = EventLog::generate(stormConfig(151));
    const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
        {masterWindow(fault::FaultKind::MasterKill, 0, 8 * kSecond,
                      20 * kSecond),
         masterWindow(fault::FaultKind::MasterPause, 1, 25 * kSecond,
                      28 * kSecond)});

    ControlPlaneConfig config = planeConfig();
    config.backpressure.enabled = true;
    config.backpressure.window = 4;
    config.backpressure.resolveCost = 300 * kMillisecond;

    auto fingerprintWith = [&](runtime::ThreadPool* pool) {
        cluster::SolverContext context;
        context.pool = pool;
        MasterGroup group(syntheticCell, config, groupConfig(),
                          context);
        return group.run(log, faults).value.fingerprint;
    };

    const std::uint64_t serial = fingerprintWith(nullptr);
    runtime::ThreadPool pool(4);
    EXPECT_EQ(serial, fingerprintWith(&pool))
        << "failover + backpressure must not read the thread count";
}

// ---- backpressure (tentpole) ------------------------------------

TEST(CtrlChaos, BackpressureShedsAndBoundsQueueDepth)
{
    // A dense storm: ~20 load shifts per second against a 500 ms
    // re-solve cost must overrun a 2-deep admission window.
    EventLogConfig dense = stormConfig(161);
    dense.horizon = 10 * kSecond;
    dense.loadShiftRate = 20.0;
    const EventLog log = EventLog::generate(dense);

    ControlPlaneConfig config = planeConfig();
    config.backpressure.enabled = true;
    config.backpressure.window = 2;
    config.backpressure.resolveCost = 500 * kMillisecond;

    ControlPlane plane(syntheticCell, config);
    const auto outcome = plane.replay(log);
    const CtrlRollup& roll = outcome.value;

    EXPECT_GE(roll.sheds, 1u) << "the storm must overrun the window";
    EXPECT_GE(roll.coalesced, 1u);
    EXPECT_LE(roll.maxQueueDepth, config.backpressure.window)
        << "admission queue must never exceed the window";
    EXPECT_EQ(outcome.tier, SolverTier::Conservative);
    EXPECT_TRUE(outcome.degradation.conservative);

    std::size_t shed_records = 0;
    for (const EventRecord& r : roll.records) {
        if (!r.shed)
            continue;
        ++shed_records;
        EXPECT_EQ(r.tier, SolverTier::Conservative);
        EXPECT_EQ(r.attempts, 0);
    }
    EXPECT_EQ(shed_records, roll.sheds);
    EXPECT_EQ(roll.solver.shed, roll.sheds);

    // Shed decisions are a pure function of (log, config): replays
    // agree bit-for-bit, with and without a pool.
    EXPECT_EQ(plane.replay(log).value.fingerprint, roll.fingerprint);
    runtime::ThreadPool pool(4);
    cluster::SolverContext context;
    context.pool = &pool;
    ControlPlane pooled(syntheticCell, config, context);
    EXPECT_EQ(pooled.replay(log).value.fingerprint,
              roll.fingerprint);
}

TEST(CtrlChaos, BackpressureCoalescesLastWins)
{
    // One admitted solve, two shed load shifts on the same server,
    // then an admitted solve after the queue drains. The final
    // solve must see only the *last* shed level (0.9) — exactly
    // what an unthrottled oracle computes for the same event.
    auto shift = [](SimTime tick, int server, double level) {
        ControlEvent e;
        e.tick = tick;
        e.kind = EventKind::LoadShift;
        e.subject = server;
        e.value = level;
        return e;
    };
    const EventLog log = EventLog::fromEvents(
        {shift(0, 0, 0.5), shift(10 * kMillisecond, 0, 0.2),
         shift(20 * kMillisecond, 0, 0.9),
         shift(300 * kMillisecond, 1, 0.4)});

    ControlPlaneConfig config = planeConfig();
    config.backpressure.enabled = true;
    config.backpressure.window = 1;
    config.backpressure.resolveCost = 100 * kMillisecond;

    ControlPlane throttled(syntheticCell, config);
    const auto bp = throttled.replay(log);
    EXPECT_EQ(bp.value.sheds, 2u);
    EXPECT_EQ(bp.value.coalesced, 2u);
    EXPECT_EQ(bp.value.maxQueueDepth, 1u);
    ASSERT_EQ(bp.value.records.size(), 4u);
    EXPECT_FALSE(bp.value.records[0].shed);
    EXPECT_TRUE(bp.value.records[1].shed);
    EXPECT_TRUE(bp.value.records[2].shed);
    EXPECT_FALSE(bp.value.records[3].shed);

    const auto oracle = oracleRun(log);
    // The post-coalesce solve sees load[0] == 0.9 (last wins), so
    // its answer is field-identical to the oracle's fourth record.
    EXPECT_EQ(bp.value.records[3].assignmentFingerprint,
              oracle.value.records[3].assignmentFingerprint);
    EXPECT_EQ(bp.value.records[3].objective,
              oracle.value.records[3].objective);
}

TEST(CtrlChaos, BackpressureSurvivesFailoverCheckpoints)
{
    // Backpressure state (pending queue, shed debt) is part of the
    // checkpoint, so a failover mid-storm must not change a single
    // shed decision: compare against the unkilled backpressured run
    // on the semantic fingerprint.
    EventLogConfig dense = stormConfig(171);
    dense.loadShiftRate = 8.0;
    const EventLog log = EventLog::generate(dense);

    ControlPlaneConfig config = planeConfig();
    config.backpressure.enabled = true;
    config.backpressure.window = 3;
    config.backpressure.resolveCost = 400 * kMillisecond;

    const auto oracle = oracleRun(log, config);
    EXPECT_GE(oracle.value.sheds, 1u);

    const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
        {masterWindow(fault::FaultKind::MasterKill, 0, 15 * kSecond,
                      32 * kSecond)});
    MasterGroup group(syntheticCell, config, groupConfig());
    const auto outcome = group.run(log, faults);

    ASSERT_GE(outcome.value.failovers.size(), 1u);
    EXPECT_EQ(outcome.value.rollup.semanticFingerprint,
              oracle.value.semanticFingerprint);
    EXPECT_EQ(outcome.value.rollup.sheds, oracle.value.sheds);
    EXPECT_EQ(outcome.value.rollup.coalesced,
              oracle.value.coalesced);
    EXPECT_LE(outcome.value.rollup.maxQueueDepth,
              config.backpressure.window);
}

// ---- event-burst lowering (chaos vocabulary) --------------------

TEST(CtrlChaos, EventBurstLowersToDenseLoadShifts)
{
    fault::FaultWindow burst = masterWindow(
        fault::FaultKind::EventBurst, -1, 1 * kSecond, 2 * kSecond);
    burst.magnitude = 10.0; // events per second
    const EventLog log = eventsFromFaultPlan(
        fault::FaultPlan::fromWindows({burst}), 3);

    ASSERT_EQ(log.size(), 10u);
    SimTime prev = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const ControlEvent& e = log.events()[i];
        EXPECT_EQ(e.kind, EventKind::LoadShift);
        EXPECT_EQ(e.tick, kSecond + static_cast<SimTime>(i) *
                                        (kSecond / 10));
        EXPECT_EQ(e.subject, static_cast<int>(i % 3))
            << "broadcast bursts round-robin the servers";
        EXPECT_GE(e.value, 0.1);
        EXPECT_LE(e.value, 0.95);
        EXPECT_GE(e.tick, prev);
        prev = e.tick;
    }

    // Targeted bursts pin the subject; regeneration is identical.
    fault::FaultWindow targeted = burst;
    targeted.server = 1;
    const EventLog pinned = eventsFromFaultPlan(
        fault::FaultPlan::fromWindows({targeted}), 3);
    ASSERT_EQ(pinned.size(), 10u);
    for (const ControlEvent& e : pinned.events())
        EXPECT_EQ(e.subject, 1);
    EXPECT_EQ(eventsFromFaultPlan(
                  fault::FaultPlan::fromWindows({burst}), 3)
                  .fingerprint(),
              log.fingerprint());
}

TEST(CtrlChaos, GeneratedMasterFaultsDriveTheGroup)
{
    // End-to-end chaos: a generated plan with master kinds feeds
    // MasterGroup (kill/pause) and the log lowering (bursts) at
    // once; the composition stays deterministic.
    fault::FaultPlanConfig chaos;
    chaos.horizon = 40 * kSecond;
    chaos.servers = 6;
    chaos.masters = 2;
    chaos.masterKillRate = 1.0;  // per minute: ~1 window
    chaos.masterPauseRate = 1.0;
    chaos.eventBurstRate = 1.0;
    chaos.burstEventsPerSecond = 5.0;
    chaos.meanDuration = 8 * kSecond;
    chaos.seed = 77;
    const fault::FaultPlan plan = fault::FaultPlan::generate(chaos);

    bool has_master_fault = false;
    for (const fault::FaultWindow& w : plan.windows())
        if (w.kind == fault::FaultKind::MasterKill ||
            w.kind == fault::FaultKind::MasterPause) {
            has_master_fault = true;
            EXPECT_GE(w.server, 0);
            EXPECT_LT(w.server, 2);
        }
    ASSERT_TRUE(has_master_fault)
        << "rates above should generate at least one master window";

    // Storm log + burst volleys, merged through fromEvents order.
    std::vector<ControlEvent> events =
        EventLog::generate(stormConfig(181)).events();
    const EventLog bursts = eventsFromFaultPlan(plan, 6);
    events.insert(events.end(), bursts.events().begin(),
                  bursts.events().end());
    const EventLog log = EventLog::fromEvents(std::move(events));

    MasterGroup group(syntheticCell, planeConfig(), groupConfig());
    const auto a = group.run(log, plan);
    const auto b = group.run(log, plan);
    ASSERT_EQ(a.value.rollup.records.size(), log.size());
    EXPECT_EQ(a.value.fingerprint, b.value.fingerprint)
        << "consecutive chaos runs must agree bit-for-bit";
    EXPECT_EQ(toMilliwatts(a.value.rollup.budgetPool),
              toMilliwatts(b.value.rollup.budgetPool));
}

// ---- fleet seam -------------------------------------------------

TEST(CtrlChaos, FleetFailoverMatchesStreamingSemantics)
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

    const FleetConfig config =
        FleetConfig{}
            .withLoadPoints({0.3, 0.7})
            .withDwell(20 * kSecond)
            .withHeraclesReplicas(1)
            .withSeed(9)
            .withHeartbeat(kSecond, kSecond / 10, 2, 4)
            .withStreaming(0.5, false)
            .withFailover(2, 4);
    const fleet::FleetEvaluator fleet(servers, config);

    const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
        {masterWindow(fault::FaultKind::MasterKill, 0, 3 * kSecond,
                      11 * kSecond)});

    const auto plain = fleet.runStreaming(log);
    const auto failover = fleet.runStreamingWithFailover(log, faults);

    ASSERT_GE(failover.value.failovers.size(), 1u);
    ASSERT_EQ(failover.value.rollup.records.size(), log.size());
    EXPECT_EQ(failover.value.rollup.semanticFingerprint,
              plain.value.semanticFingerprint)
        << "the failover path must re-derive runStreaming's results";
    EXPECT_EQ(toMilliwatts(failover.value.rollup.budgetPool),
              toMilliwatts(plain.value.budgetPool));

    // And the failover driver itself is replay-identical.
    const auto again =
        fleet.runStreamingWithFailover(log, faults);
    EXPECT_EQ(again.value.fingerprint, failover.value.fingerprint);
}

TEST(CtrlChaos, FleetFailoverKeepsObjectivesOnTiedFleets)
{
    // A generated fleet with repeated platforms and apps: identical
    // matrix rows and columns make several assignments optimal. A
    // restored master re-solves with a cold placer and an empty memo,
    // and on exact ties the ladder's pick depends on that history, so
    // failover may choose other (equally good) assignments than the
    // uninterrupted run. What must hold: one record per event, and
    // every other semantic field — tick, kind, subject, shed bit,
    // objective, fleet shape, liveness and budget — equal to
    // runStreaming's. Assignments match only when every optimum is
    // unique (FleetFailoverMatchesStreamingSemantics). The objective
    // is compared bit for bit, which holds on these seeds; in general
    // only its value is fixed, because a tied assignment sums the
    // same cells in another row order and floating-point addition is
    // not associative.
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        const scen::Scenario scenario = scen::Scenario::generate(
            scen::ScenarioSpec{}
                .withClusters(8)
                .withServersPerCluster(2)
                .withApps(2, 2)
                .withPlatformCount(2)
                .withSeed(seed));
        FleetConfig config = FleetConfig{}.withSeed(seed);
        config.withScenario(scenario);
        const fleet::FleetEvaluator fleet(
            fleet::serversFromScenario(scenario), config);

        EventLogConfig log_config;
        log_config.horizon = 12 * kSecond;
        log_config.servers = 16;
        log_config.bePool = 16;
        log_config.loadShiftRate = 4.0;
        log_config.beChurnRate = 0.0;
        log_config.crashRate = 0.0;
        log_config.budgetChangeRate = 0.0;
        log_config.seed = seed + 100;
        const EventLog log = EventLog::generate(log_config);

        const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
            {masterWindow(fault::FaultKind::MasterKill, 0,
                          6 * kSecond, 14 * kSecond)});

        const auto plain = fleet.runStreaming(log);
        const auto failover =
            fleet.runStreamingWithFailover(log, faults);

        ASSERT_GE(failover.value.failovers.size(), 1u)
            << "seed " << seed;
        const auto& want = plain.value.records;
        const auto& got = failover.value.rollup.records;
        ASSERT_EQ(want.size(), log.size()) << "seed " << seed;
        ASSERT_EQ(got.size(), log.size()) << "seed " << seed;
        // Every semantic field but the assignment fingerprint.
        auto fields = [](const EventRecord& r) {
            return std::make_tuple(r.tick, static_cast<int>(r.kind),
                                   r.subject, r.shed, r.objective,
                                   r.activeBe, r.placeableServers);
        };
        for (std::size_t k = 0; k < got.size(); ++k)
            EXPECT_EQ(fields(got[k]), fields(want[k]))
                << "seed " << seed << " record " << k;
        EXPECT_EQ(failover.value.rollup.livenessFingerprint,
                  plain.value.livenessFingerprint);
        EXPECT_EQ(toMilliwatts(failover.value.rollup.budgetPool),
                  toMilliwatts(plain.value.budgetPool));
    }
}

} // namespace
} // namespace poco::ctrl
