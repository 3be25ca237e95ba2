/**
 * @file
 * Fleet-scale scenario scaling study.
 *
 * Generates seeded fleets with poco::scen (Zipf platform mix,
 * diurnal + flash-crowd load, regional correlation, fault storms),
 * evaluates each through the FleetEvaluator, and sweeps cluster
 * count x threads. Two claims are checked, both gating the exit
 * code:
 *
 *   1. Determinism: for a fixed cluster count, every thread count
 *      must produce the same scenario fingerprint AND the same
 *      rollup fingerprint, bit for bit.
 *   2. Scale: the default sweep evaluates a >= 500-cluster fleet.
 *
 * Emits BENCH_fleet.json — the cluster-count x threads scaling table
 * re-anchors read for the fleet perf curve. Pass --small for the CI
 * variant (same gates, toy sizes); the first non-flag argument
 * overrides the output path.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common.hpp"
#include "fleet/scenario_fleet.hpp"
#include "runtime/thread_pool.hpp"
#include "scen/scenario.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

double
seconds(std::chrono::steady_clock::time_point from,
        std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

scen::ScenarioSpec
specFor(std::size_t clusters)
{
    return scen::ScenarioSpec{}
        .withClusters(clusters)
        .withServersPerCluster(1)
        .withApps(1, 1)
        .withPlatformZipf(1.1)
        .withPlatformCount(4)
        .withRegions(std::min<std::size_t>(8, clusters))
        .withEpochs(3)
        .withFlashCrowds(2, 0.5, 1 * kHour)
        .withBeArrivals(6.0)
        .withFaultStorms(2, 10 * kMinute, 0.25)
        .withSeed(1234);
}

/** Coarse evaluation knobs: the sweep measures fleet scaling, not
 * per-server fidelity, so the profiler grid and dwell are cut to
 * the bone (the fingerprints still cover every emitted bit). */
FleetConfig
configFor(int threads)
{
    FleetConfig config = FleetConfig{}
                             .withLoadPoints({0.4, 0.8})
                             .withDwell(2 * kSecond)
                             .withHeraclesReplicas(1)
                             .withSeed(42)
                             .withThreads(threads);
    config.profiler.coreStep = 5;
    config.profiler.wayStep = 9;
    config.server.warmup = 1 * kSecond;
    return config;
}

struct SweepRow
{
    std::size_t clusters = 0;
    int threads = 0;
    std::uint64_t scenFingerprint = 0;
    std::uint64_t rollupFingerprint = 0;
    double generateSeconds = 0.0;
    double buildSeconds = 0.0;
    double runSeconds = 0.0;
};

SweepRow
runOnce(std::size_t clusters, int threads)
{
    SweepRow row;
    row.clusters = clusters;
    row.threads = threads;

    const auto t0 = std::chrono::steady_clock::now();
    std::unique_ptr<runtime::ThreadPool> gen_pool;
    if (threads > 1)
        gen_pool = std::make_unique<runtime::ThreadPool>(
            static_cast<unsigned>(threads));
    const scen::Scenario scenario =
        scen::Scenario::generate(specFor(clusters), gen_pool.get());
    row.scenFingerprint = scenario.fingerprint();

    const auto t1 = std::chrono::steady_clock::now();
    FleetConfig config = configFor(threads);
    config.withScenario(scenario);
    const fleet::FleetEvaluator evaluator(
        fleet::serversFromScenario(scenario), config);

    const auto t2 = std::chrono::steady_clock::now();
    const auto outcome = evaluator.run();
    row.rollupFingerprint = outcome.value.fingerprint();

    const auto t3 = std::chrono::steady_clock::now();
    row.generateSeconds = seconds(t0, t1);
    row.buildSeconds = seconds(t1, t2);
    row.runSeconds = seconds(t2, t3);
    return row;
}

} // namespace

int
main(int argc, char** argv)
{
    bool small = false;
    std::string out_path = "BENCH_fleet.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--small") == 0)
            small = true;
        else
            out_path = argv[i];
    }

    bench::banner(
        "FLEET-SCALING",
        "scenario-generated fleets: cluster count x threads",
        "fleet evaluation is bit-identical for any thread count, "
        "at >= 500 clusters");

    const std::vector<std::size_t> sizes =
        small ? std::vector<std::size_t>{12, 32}
              : std::vector<std::size_t>{64, 192, 512};
    const std::vector<int> thread_counts = {1, 2, 4};

    TextTable table({"clusters", "threads", "generate_s", "build_s",
                     "run_s", "rollup_fp"});
    bench::Json rows = bench::Json::array();
    bool identical = true;

    for (const std::size_t clusters : sizes) {
        std::uint64_t expected_scen = 0;
        std::uint64_t expected_rollup = 0;
        for (std::size_t i = 0; i < thread_counts.size(); ++i) {
            const SweepRow row = runOnce(clusters, thread_counts[i]);
            if (i == 0) {
                expected_scen = row.scenFingerprint;
                expected_rollup = row.rollupFingerprint;
            } else if (row.scenFingerprint != expected_scen ||
                       row.rollupFingerprint != expected_rollup) {
                identical = false;
                std::fprintf(stderr,
                             "FINGERPRINT MISMATCH at %zu clusters "
                             "threads=%d\n",
                             clusters, row.threads);
            }
            char fp[32];
            std::snprintf(fp, sizeof fp, "%016llx",
                          static_cast<unsigned long long>(
                              row.rollupFingerprint));
            table.addRow({std::to_string(row.clusters),
                          std::to_string(row.threads),
                          fmt(row.generateSeconds, 3),
                          fmt(row.buildSeconds, 3),
                          fmt(row.runSeconds, 3), fp});
            rows.push(bench::Json::object()
                          .integer("clusters",
                                   static_cast<std::int64_t>(
                                       row.clusters))
                          .integer("threads", row.threads)
                          .hex("scenario_fingerprint",
                               row.scenFingerprint)
                          .hex("rollup_fingerprint",
                               row.rollupFingerprint)
                          .num("generate_seconds",
                               row.generateSeconds)
                          .num("build_seconds", row.buildSeconds)
                          .num("run_seconds", row.runSeconds));
        }
    }

    std::printf("%s", table.render().c_str());
    std::printf("\ndeterminism gate: %s\n",
                identical ? "PASS (fingerprints bit-identical "
                            "across thread counts)"
                          : "FAIL");

    bench::Json root = bench::Json::object();
    root.str("bench", "scen_scaling")
        .flag("small", small)
        .integer("max_clusters",
                 static_cast<std::int64_t>(sizes.back()))
        .flag("deterministic", identical)
        .child("rows", rows);
    bench::writeJson(root, out_path);

    return identical ? 0 : 1;
}
