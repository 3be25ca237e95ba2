/**
 * @file
 * Extension — streaming control plane.
 *
 * Two experiments, one gate, one artifact:
 *
 *  - storm replay: the same generated EventLog driven through an
 *    incremental ControlPlane and a forceCold baseline. Every event
 *    record must agree field-exactly (assignment fingerprint,
 *    objective, active BE count, placeable servers) — only the tier
 *    and attempt counters may differ, because taking cheaper rungs is
 *    the whole point. The bench exits 1 on any divergence.
 *
 *  - single-event resolve: one server column re-priced on an n x n
 *    matrix, IncrementalPlacer::resolve against a cold
 *    placeWithFallback of the same matrix. The acceptance gate
 *    requires the incremental path to be >= 2x faster at n >= 64.
 *
 * Machine-readable results land in BENCH_ctrl.json (argv[1]
 * overrides the output path).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cluster/incremental.hpp"
#include "cluster/placement.hpp"
#include "common.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

/**
 * Pure synthetic cell model: a hash of (be, server) shaped by load.
 * The avalanche finalizer matters — a bare xor-multiply leaves cell
 * differences across servers as small integer multiples of one
 * constant, and cycles of those cancel below solver tolerance,
 * manufacturing alternate optima no real workload has. Fully mixed
 * 53-bit values are generically distinct, optima are unique, and the
 * incremental and cold planes must agree bit for bit.
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

double
sinceSeconds(std::chrono::steady_clock::time_point t0)
{
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count();
}

struct StormResult
{
    std::size_t servers = 0;
    std::size_t events = 0;
    std::size_t resolves = 0;
    double coldSeconds = 0.0;
    double incrementalSeconds = 0.0;
    bool identical = true;
    cluster::IncrementalStats solver;
};

/** Replay one generated storm both ways and diff every record. */
StormResult
runStorm(std::size_t n, const cluster::SolverContext& context)
{
    ctrl::EventLogConfig log_config;
    log_config.horizon = 30 * kSecond;
    log_config.servers = n;
    log_config.bePool = n;
    log_config.loadShiftRate = 1.0;
    log_config.beChurnRate = 0.3;
    log_config.crashRate = 0.1;
    log_config.budgetChangeRate = 0.05;
    log_config.meanOutage = 5 * kSecond;
    log_config.seed = 77 + static_cast<std::uint64_t>(n);
    const ctrl::EventLog log = ctrl::EventLog::generate(log_config);

    ctrl::ControlPlaneConfig config;
    config.servers = n;
    config.bePool = n;
    config.initialBe = (3 * n) / 4; // leave room for BE churn
    config.initialLoad = 0.5;
    config.perServerBudget = Watts{90.0};
    config.heartbeat.periodTicks = kSecond;
    config.heartbeat.jitterTicks = kSecond / 10;
    config.heartbeat.suspectMisses = 2;
    config.heartbeat.deadMisses = 4;
    config.heartbeat.seed = 5;

    StormResult out;
    out.servers = n;
    out.events = log.size();

    ctrl::ControlPlane incremental(syntheticCell, config, context);
    const auto t_inc = std::chrono::steady_clock::now();
    const auto inc = incremental.replay(log);
    out.incrementalSeconds = sinceSeconds(t_inc);

    ctrl::ControlPlaneConfig cold_config = config;
    cold_config.forceCold = true;
    ctrl::ControlPlane cold(syntheticCell, cold_config, context);
    const auto t_cold = std::chrono::steady_clock::now();
    const auto base = cold.replay(log);
    out.coldSeconds = sinceSeconds(t_cold);

    out.resolves = inc.value.resolves;
    out.solver = inc.value.solver;
    out.identical =
        inc.value.records.size() == base.value.records.size() &&
        inc.value.livenessFingerprint ==
            base.value.livenessFingerprint;
    if (out.identical) {
        for (std::size_t i = 0; i < inc.value.records.size(); ++i) {
            const ctrl::EventRecord& a = inc.value.records[i];
            const ctrl::EventRecord& b = base.value.records[i];
            if (a.tick != b.tick ||
                a.assignmentFingerprint != b.assignmentFingerprint ||
                a.objective != b.objective ||
                a.activeBe != b.activeBe ||
                a.placeableServers != b.placeableServers) {
                out.identical = false;
                std::printf("  divergence at event %zu (%s): "
                            "fp %016llx/%016llx obj %.17g/%.17g "
                            "be %u/%u placeable %u/%u tier %d/%d\n",
                            i, ctrl::eventKindName(a.kind),
                            static_cast<unsigned long long>(
                                a.assignmentFingerprint),
                            static_cast<unsigned long long>(
                                b.assignmentFingerprint),
                            a.objective, b.objective, a.activeBe,
                            b.activeBe, a.placeableServers,
                            b.placeableServers,
                            static_cast<int>(a.tier),
                            static_cast<int>(b.tier));
                break;
            }
        }
    }
    return out;
}

struct MicroResult
{
    std::size_t servers = 0;
    int rounds = 0;
    double coldSeconds = 0.0;
    double incrementalSeconds = 0.0;
    bool identical = true;
};

/**
 * Single-event perturbations on an n x n matrix: re-price one server
 * column, then resolve incrementally and cold. The cold side is the
 * batch path the incremental ladder replaces, timed per call.
 */
MicroResult
runSingleEvent(std::size_t n, const cluster::SolverContext& context)
{
    Rng rng(900 + static_cast<std::uint64_t>(n));
    cluster::PerformanceMatrix matrix;
    matrix.resize(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);

    cluster::IncrementalPlacer placer(context);
    // Warm-up solve; the outcome itself is intentionally unused.
    (void)placer.resolve(matrix, cluster::PlacementDelta::shape());

    MicroResult out;
    out.servers = n;
    out.rounds = n >= 128 ? 3 : n >= 64 ? 8 : 32;
    for (int round = 0; round < out.rounds; ++round) {
        const auto col = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) - 1));
        for (std::size_t i = 0; i < n; ++i)
            matrix(i, col) = rng.uniform(0.0, 100.0);

        const auto t_inc = std::chrono::steady_clock::now();
        const auto inc =
            placer.resolve(matrix, cluster::PlacementDelta::column(col));
        out.incrementalSeconds += sinceSeconds(t_inc);

        const auto t_cold = std::chrono::steady_clock::now();
        const auto cold = cluster::placeWithFallback(matrix, context);
        out.coldSeconds += sinceSeconds(t_cold);

        if (inc.value != cold.value) {
            out.identical = false;
            std::printf("  divergence at n=%zu round %d\n", n, round);
        }
    }
    return out;
}

double
speedupOf(double cold_s, double incremental_s)
{
    return incremental_s > 0.0 ? cold_s / incremental_s : 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner(
        "Ext: streaming control plane",
        "incremental re-solve vs cold per-event placement",
        "reacting to one event should cost one repair, not one "
        "cluster-wide re-solve; answers must be field-identical");

    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_ctrl.json";
    constexpr double kMinSpeedup = 2.0;
    bool pass = true;

    // Both sides get the same pool (matrix rows, and pivot
    // elimination on tableaus past the LP's size cutoff): the speedup
    // measures the incremental ladder, not a threading handicap.
    runtime::ThreadPool pool(4);
    cluster::SolverContext context;
    context.pool = &pool;

    std::printf("storm replay (same EventLog, incremental vs "
                "forceCold control plane):\n");
    bench::Json storm_rows = bench::Json::array();
    TextTable storm({"servers", "events", "resolves", "cold s",
                     "incremental s", "speedup", "identical"});
    for (const std::size_t n : {std::size_t{16}, std::size_t{64}}) {
        const StormResult r = runStorm(n, context);
        pass = pass && r.identical;
        const double speedup =
            speedupOf(r.coldSeconds, r.incrementalSeconds);
        storm.addRow({std::to_string(r.servers),
                      std::to_string(r.events),
                      std::to_string(r.resolves),
                      fmt(r.coldSeconds, 3),
                      fmt(r.incrementalSeconds, 3), fmt(speedup, 1),
                      r.identical ? "yes" : "NO"});
        storm_rows.push(
            bench::Json::object()
                .integer("servers",
                         static_cast<std::int64_t>(r.servers))
                .integer("events",
                         static_cast<std::int64_t>(r.events))
                .integer("resolves",
                         static_cast<std::int64_t>(r.resolves))
                .integer("cached",
                         static_cast<std::int64_t>(r.solver.cached))
                .integer("repaired",
                         static_cast<std::int64_t>(r.solver.repaired))
                .integer("warm",
                         static_cast<std::int64_t>(r.solver.warm))
                .num("cold_seconds", r.coldSeconds)
                .num("incremental_seconds", r.incrementalSeconds)
                .num("speedup", speedup)
                .flag("identical", r.identical));
    }
    std::printf("%s", storm.render().c_str());

    std::printf("\nsingle-event resolve (one column re-priced, "
                "IncrementalPlacer vs placeWithFallback):\n");
    bench::Json micro_rows = bench::Json::array();
    TextTable micro({"servers", "rounds", "cold s", "incremental s",
                     "speedup", "identical"});
    for (const std::size_t n :
         {std::size_t{16}, std::size_t{64}, std::size_t{128}}) {
        const MicroResult r = runSingleEvent(n, context);
        const double speedup =
            speedupOf(r.coldSeconds, r.incrementalSeconds);
        pass = pass && r.identical;
        if (n >= 64 && speedup < kMinSpeedup) {
            pass = false;
            std::printf("  gate miss: n=%zu speedup %.2f < %.1f\n", n,
                        speedup, kMinSpeedup);
        }
        micro.addRow({std::to_string(r.servers),
                      std::to_string(r.rounds), fmt(r.coldSeconds, 4),
                      fmt(r.incrementalSeconds, 4), fmt(speedup, 1),
                      r.identical ? "yes" : "NO"});
        micro_rows.push(
            bench::Json::object()
                .integer("servers",
                         static_cast<std::int64_t>(r.servers))
                .integer("rounds", r.rounds)
                .num("cold_seconds", r.coldSeconds)
                .num("incremental_seconds", r.incrementalSeconds)
                .num("speedup", speedup)
                .flag("identical", r.identical));
    }
    std::printf("%s", micro.render().c_str());

    bench::Json root = bench::Json::object();
    root.str("bench", "ctrl")
        .num("gate_min_speedup", kMinSpeedup)
        .child("storm", storm_rows)
        .child("single_event", micro_rows)
        .flag("pass", pass);
    bench::writeJson(root, out_path);

    if (!pass) {
        std::printf("\nFAIL: incremental control plane diverged from "
                    "the cold baseline or missed the speedup gate\n");
        return 1;
    }
    std::printf("\nincremental ladder field-identical to cold "
                "re-solve; single-event speedup >= %.1fx at n >= "
                "64\n",
                kMinSpeedup);
    return 0;
}
