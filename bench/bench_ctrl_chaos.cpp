/**
 * @file
 * Extension — control-plane failover and backpressure chaos bench.
 *
 * Two experiments, three gates, one artifact:
 *
 *  - failover catch-up: the same storm log driven through a
 *    two-master MasterGroup with the primary killed mid-run, swept
 *    over checkpoint cadences. The catch-up replay length must
 *    shrink as checkpoints get denser, and every run must match the
 *    uninterrupted oracle on the semantic fingerprint and conserve
 *    the budget pool to the milliwatt.
 *
 *  - backpressure shed sweep: event-storm rate swept against a
 *    fixed admission window. The queue depth must never exceed the
 *    window, the top rate must shed at least once, and every
 *    (rate, config) point must produce a bit-identical rollup
 *    fingerprint serial and on a 4-thread pool.
 *
 * Machine-readable results land in BENCH_ctrl_chaos.json (argv[1]
 * overrides the output path). Exit 1 on any gate miss.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "ctrl/master_group.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/thread_pool.hpp"
#include "util/milliwatts.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

/** Same avalanche-mixed synthetic cell as bench_ctrl: unique optima,
 *  so warm, cold, and restored answers must agree bit for bit. */
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

double
sinceSeconds(std::chrono::steady_clock::time_point t0)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count();
}

ctrl::ControlPlaneConfig
planeConfig()
{
    ctrl::ControlPlaneConfig config;
    config.servers = 8;
    config.bePool = 8;
    config.initialBe = 6;
    config.initialLoad = 0.5;
    config.perServerBudget = Watts{90.0};
    config.heartbeat.periodTicks = kSecond;
    config.heartbeat.jitterTicks = kSecond / 10;
    config.heartbeat.suspectMisses = 2;
    config.heartbeat.deadMisses = 4;
    config.heartbeat.seed = 5;
    return config;
}

ctrl::EventLog
stormLog(double load_shift_rate, std::uint64_t seed)
{
    ctrl::EventLogConfig config;
    config.horizon = 40 * kSecond;
    config.servers = 8;
    config.bePool = 8;
    config.loadShiftRate = load_shift_rate;
    config.beChurnRate = 0.3;
    config.crashRate = 0.1;
    config.budgetChangeRate = 0.05;
    config.meanOutage = 6 * kSecond;
    config.seed = seed;
    return ctrl::EventLog::generate(config);
}

struct FailoverResult
{
    std::size_t checkpointEvery = 0;
    std::size_t events = 0;
    std::size_t failovers = 0;
    std::size_t checkpoints = 0;
    std::size_t catchUpEvents = 0;
    std::size_t maxStaleness = 0;
    double seconds = 0.0;
    bool semanticOk = false;
    bool budgetOk = false;
};

FailoverResult
runFailover(std::size_t checkpoint_every, const ctrl::EventLog& log,
            const Outcome<ctrl::CtrlRollup>& oracle)
{
    ctrl::MasterGroupConfig group;
    group.masters = 2;
    group.lease.periodTicks = kSecond;
    group.lease.jitterTicks = kSecond / 10;
    group.lease.suspectMisses = 2;
    group.lease.deadMisses = 4;
    group.lease.seed = 99;
    group.checkpointEvery = checkpoint_every;

    fault::FaultWindow kill;
    kill.kind = fault::FaultKind::MasterKill;
    kill.server = 0;
    kill.start = 12 * kSecond;
    kill.end = 30 * kSecond;
    const fault::FaultPlan faults =
        fault::FaultPlan::fromWindows({kill});

    ctrl::MasterGroup masters(syntheticCell, planeConfig(), group);
    const auto t0 = std::chrono::steady_clock::now();
    const auto outcome = masters.run(log, faults);
    const ctrl::MasterGroupRollup& roll = outcome.value;

    FailoverResult out;
    out.checkpointEvery = checkpoint_every;
    out.events = log.size();
    out.seconds = sinceSeconds(t0);
    out.failovers = roll.failovers.size();
    out.checkpoints = roll.checkpoints;
    for (const ctrl::FailoverRecord& f : roll.failovers)
        out.catchUpEvents += f.catchUpEvents;
    out.maxStaleness = roll.maxStalenessEvents;
    out.semanticOk =
        roll.rollup.records.size() == log.size() &&
        roll.rollup.semanticFingerprint ==
            oracle.value.semanticFingerprint &&
        roll.rollup.livenessFingerprint ==
            oracle.value.livenessFingerprint;
    out.budgetOk = toMilliwatts(roll.rollup.budgetPool) ==
                   toMilliwatts(oracle.value.budgetPool);
    return out;
}

struct ShedResult
{
    double rate = 0.0;
    std::size_t events = 0;
    std::size_t resolves = 0;
    std::size_t sheds = 0;
    std::size_t coalesced = 0;
    std::size_t maxQueueDepth = 0;
    double seconds = 0.0;
    bool identical = false;
};

ShedResult
runShedSweep(double rate, std::size_t window)
{
    const ctrl::EventLog log =
        stormLog(rate, 300 + static_cast<std::uint64_t>(rate));

    ctrl::ControlPlaneConfig config = planeConfig();
    config.backpressure.enabled = true;
    config.backpressure.window = window;
    config.backpressure.resolveCost = 250 * kMillisecond;

    ctrl::ControlPlane serial(syntheticCell, config);
    const auto t0 = std::chrono::steady_clock::now();
    const auto base = serial.replay(log);

    ShedResult out;
    out.rate = rate;
    out.seconds = sinceSeconds(t0);
    out.events = log.size();
    out.resolves = base.value.resolves;
    out.sheds = base.value.sheds;
    out.coalesced = base.value.coalesced;
    out.maxQueueDepth = base.value.maxQueueDepth;

    // The shed schedule is part of the replay identity: a 4-thread
    // pool must reproduce the serial rollup bit for bit.
    runtime::ThreadPool pool(4);
    cluster::SolverContext context;
    context.pool = &pool;
    ctrl::ControlPlane pooled(syntheticCell, config, context);
    out.identical = pooled.replay(log).value.fingerprint ==
                    base.value.fingerprint;
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner(
        "Ext: control-plane chaos",
        "master failover catch-up and backpressure shedding",
        "failover must lose no events and no milliwatts; overload "
        "must shed deterministically with bounded queue depth");

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_ctrl_chaos.json";
    bool pass = true;

    const ctrl::EventLog storm = stormLog(1.0, 202);
    ctrl::ControlPlane oracle_plane(syntheticCell, planeConfig());
    const auto oracle = oracle_plane.replay(storm);

    std::printf("failover catch-up (primary killed 12s-30s, "
                "checkpoint cadence swept):\n");
    bench::Json failover_rows = bench::Json::array();
    TextTable failover_table({"ckpt every", "events", "failovers",
                              "checkpoints", "catch-up", "staleness",
                              "seconds", "semantic", "budget"});
    for (const std::size_t every :
         {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
        const FailoverResult r = runFailover(every, storm, oracle);
        pass = pass && r.semanticOk && r.budgetOk &&
               r.failovers >= 1;
        failover_table.addRow(
            {std::to_string(r.checkpointEvery),
             std::to_string(r.events), std::to_string(r.failovers),
             std::to_string(r.checkpoints),
             std::to_string(r.catchUpEvents),
             std::to_string(r.maxStaleness), fmt(r.seconds, 3),
             r.semanticOk ? "yes" : "NO",
             r.budgetOk ? "yes" : "NO"});
        failover_rows.push(
            bench::Json::object()
                .integer("checkpoint_every",
                         static_cast<std::int64_t>(r.checkpointEvery))
                .integer("events",
                         static_cast<std::int64_t>(r.events))
                .integer("failovers",
                         static_cast<std::int64_t>(r.failovers))
                .integer("checkpoints",
                         static_cast<std::int64_t>(r.checkpoints))
                .integer("catch_up_events",
                         static_cast<std::int64_t>(r.catchUpEvents))
                .integer("max_staleness_events",
                         static_cast<std::int64_t>(r.maxStaleness))
                .num("seconds", r.seconds)
                .flag("semantic_identical", r.semanticOk)
                .flag("budget_exact", r.budgetOk));
    }
    std::printf("%s", failover_table.render().c_str());

    constexpr std::size_t kWindow = 4;
    std::printf("\nbackpressure shed sweep (admission window %zu, "
                "250 ms resolve cost):\n",
                kWindow);
    bench::Json shed_rows = bench::Json::array();
    TextTable shed_table({"shift rate", "events", "resolves",
                          "sheds", "coalesced", "max depth",
                          "seconds", "identical"});
    const std::vector<double> rates{2.0, 8.0, 32.0};
    for (const double rate : rates) {
        const ShedResult r = runShedSweep(rate, kWindow);
        pass = pass && r.identical;
        if (r.maxQueueDepth > kWindow) {
            pass = false;
            std::printf("  gate miss: rate %.0f queue depth %zu > "
                        "window %zu\n",
                        rate, r.maxQueueDepth, kWindow);
        }
        if (rate == rates.back() && r.sheds == 0) {
            pass = false;
            std::printf("  gate miss: top rate %.0f shed nothing\n",
                        rate);
        }
        shed_table.addRow(
            {fmt(r.rate, 0), std::to_string(r.events),
             std::to_string(r.resolves), std::to_string(r.sheds),
             std::to_string(r.coalesced),
             std::to_string(r.maxQueueDepth), fmt(r.seconds, 3),
             r.identical ? "yes" : "NO"});
        shed_rows.push(
            bench::Json::object()
                .num("load_shift_rate", r.rate)
                .integer("events",
                         static_cast<std::int64_t>(r.events))
                .integer("resolves",
                         static_cast<std::int64_t>(r.resolves))
                .integer("sheds",
                         static_cast<std::int64_t>(r.sheds))
                .integer("coalesced",
                         static_cast<std::int64_t>(r.coalesced))
                .integer("max_queue_depth",
                         static_cast<std::int64_t>(r.maxQueueDepth))
                .num("seconds", r.seconds)
                .flag("thread_identical", r.identical));
    }
    std::printf("%s", shed_table.render().c_str());

    bench::Json root = bench::Json::object();
    root.str("bench", "ctrl_chaos")
        .integer("window", static_cast<std::int64_t>(kWindow))
        .child("failover", failover_rows)
        .child("shed_sweep", shed_rows)
        .flag("pass", pass);
    bench::writeJson(root, out_path);

    if (!pass) {
        std::printf("\nFAIL: failover diverged from the oracle, "
                    "lost budget, or backpressure broke a bound\n");
        return 1;
    }
    std::printf("\nfailover semantic-identical and milliwatt-exact "
                "at every checkpoint cadence; shed sweep bounded "
                "and thread-identical\n");
    return 0;
}
