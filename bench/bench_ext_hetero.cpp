/**
 * @file
 * Extension — heterogeneous fleet.
 *
 * Real private clouds mix server generations. This study builds a
 * mixed fleet: four servers on the paper's Xeon E5-2650 platform and
 * four on a newer 16-core platform, each pair hosting the same four
 * primaries. Every application is profiled and fitted *per
 * platform*, the 8x8 performance matrix is assembled cell by cell
 * with the matching platform's models, and the Hungarian assignment
 * is compared against (a) random placement and (b) a scheduler that
 * reuses the old platform's models everywhere.
 *
 * Finding: the scale-free preference vector (alpha_j / p_j)
 * transfers across generations almost unchanged — it is a ratio of
 * per-unit coefficients, not of capacities — so cross-platform
 * model reuse costs ~nothing here, while random placement still
 * leaves ~9%. This *supports* the paper's argument that the
 * preference metric is independent of scale and operating point.
 */

#include <chrono>
#include <cstdio>

#include "cluster/performance_matrix.hpp"
#include "common.hpp"
#include "fleet/fleet_evaluator.hpp"
#include "math/hungarian.hpp"
#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

/** A newer, wider platform (16 cores, faster DVFS range). */
sim::ServerSpec
newerPlatform()
{
    sim::ServerSpec spec = sim::xeonE5_2650();
    spec.name = "xeon-16c";
    spec.cores = 16;
    spec.freqMax = GHz{2.6};
    spec.idlePower = Watts{55.0};
    spec.nominalActivePower = Watts{165.0};
    return spec;
}

struct Platform
{
    sim::ServerSpec spec;
    std::vector<wl::LcApp> lc;
    std::vector<wl::BeApp> be;
    std::vector<model::CobbDouglasUtility> lc_models;
    std::vector<model::CobbDouglasUtility> be_models;
};

/** The same platform as a fleet-layer AppSet (spec + app instances). */
wl::AppSet
makeAppSet(const sim::ServerSpec& spec)
{
    wl::AppSet set;
    set.spec = spec;
    for (const auto& params : wl::defaultLcParams())
        set.lc.emplace_back(params, spec);
    for (auto params : wl::defaultBeParams()) {
        params.normCores = spec.cores - 1;
        params.normWays = spec.llcWays - 2;
        set.be.emplace_back(params, spec);
    }
    return set;
}

/** One end-to-end fleet evaluation; returns rollup + wall seconds. */
struct FleetRun
{
    fleet::FleetRollup rollup;
    double wallSeconds = 0.0;
};

FleetRun
runFleet(const wl::AppSet& old_set, const wl::AppSet& new_set,
         int threads)
{
    std::vector<fleet::FleetServer> servers;
    for (std::size_t j = 0; j < old_set.lc.size(); ++j)
        servers.push_back({&old_set, j, Watts{}});
    for (std::size_t j = 0; j < new_set.lc.size(); ++j)
        servers.push_back({&new_set, j, Watts{}});

    const FleetConfig config =
        FleetConfig{}
            .withLoadPoints({0.3, 0.7})
            .withDwell(60 * kSecond)
            .withHeraclesReplicas(2)
            .withSeed(29)
            .withThreads(threads)
            .withEpochLoads({0.4, 0.7, 0.9});

    FleetRun out;
    const auto t0 = std::chrono::steady_clock::now();
    const fleet::FleetEvaluator evaluator(std::move(servers),
                                          config);
    out.rollup = evaluator.run().value;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    out.wallSeconds = elapsed.count();
    return out;
}

Platform
makePlatform(const sim::ServerSpec& spec)
{
    Platform p;
    p.spec = spec;
    for (const auto& params : wl::defaultLcParams())
        p.lc.emplace_back(params, spec);
    for (auto params : wl::defaultBeParams()) {
        // Normalization point scales with the platform width.
        params.normCores = spec.cores - 1;
        params.normWays = spec.llcWays - 2;
        p.be.emplace_back(params, spec);
    }
    const model::Profiler profiler;
    const model::UtilityFitter fitter;
    for (const auto& lc : p.lc)
        p.lc_models.push_back(fitter.fit(profiler.profileLc(lc)));
    for (const auto& be : p.be)
        p.be_models.push_back(fitter.fit(profiler.profileBe(be)));
    return p;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::banner(
        "Ext: heterogeneous fleet",
        "mixed server generations, per-platform models",
        "the scale-free preference vector transfers across "
        "generations (model reuse is ~free); random placement "
        "still loses ~9%");

    const Platform old_gen = makePlatform(sim::xeonE5_2650());
    const Platform new_gen = makePlatform(newerPlatform());

    // Preference drift across generations.
    std::printf("indirect preferences (cores share), by platform:\n");
    TextTable prefs({"app", old_gen.spec.name, new_gen.spec.name});
    for (std::size_t i = 0; i < old_gen.lc.size(); ++i)
        prefs.addRow(
            {old_gen.lc[i].name(),
             fmt(old_gen.lc_models[i].indirectPreference()[0], 2),
             fmt(new_gen.lc_models[i].indirectPreference()[0], 2)});
    for (std::size_t i = 0; i < old_gen.be.size(); ++i)
        prefs.addRow(
            {old_gen.be[i].name(),
             fmt(old_gen.be_models[i].indirectPreference()[0], 2),
             fmt(new_gen.be_models[i].indirectPreference()[0], 2)});
    std::printf("%s\n", prefs.render().c_str());

    // The mixed fleet: servers 0-3 old (one per primary), 4-7 new.
    // Candidates: two instances of each BE app (8 jobs, 8 servers).
    const auto& spec_of = [&](std::size_t j) -> const Platform& {
        return j < 4 ? old_gen : new_gen;
    };

    auto build_matrix = [&](bool per_platform_models) {
        cluster::PerformanceMatrix value;
        value.resize(8, 8);
        for (std::size_t i = 0; i < 8; ++i) {
            const std::size_t be_idx = i % 4;
            for (std::size_t j = 0; j < 8; ++j) {
                const Platform& host = spec_of(j);
                // A naive scheduler reuses the old platform's BE
                // models on the new boxes.
                const Platform& be_src =
                    per_platform_models ? host : old_gen;
                cluster::BeCandidateModel be{
                    host.be[be_idx].name(),
                    be_src.be_models[be_idx]};
                cluster::LcServerModel lc{
                    host.lc[j % 4].name(),
                    host.lc_models[j % 4],
                    host.lc[j % 4].peakLoad(),
                    host.lc[j % 4].provisionedPower()};
                double sum = 0.0;
                for (double load : {0.1, 0.3, 0.5, 0.7, 0.9})
                    sum += cluster::estimateCellAtLoad(
                        be, lc, host.spec, load, 1.0);
                value(i, j) = sum / 5.0;
            }
        }
        return value;
    };

    // "True" values come from per-platform models; the naive matrix
    // decides, the true matrix scores.
    const auto truth = build_matrix(true);
    const auto naive = build_matrix(false);

    const auto best = math::solveAssignmentMax(truth.view());
    const auto naive_choice = math::solveAssignmentMax(naive.view());
    const double best_value =
        math::assignmentValue(truth.view(), best);
    const double naive_value =
        math::assignmentValue(truth.view(), naive_choice);

    Rng rng(11);
    double random_value = 0.0;
    constexpr int kDraws = 64;
    for (int d = 0; d < kDraws; ++d) {
        const auto perm = rng.permutation(8);
        random_value += math::assignmentValue(
            truth.view(),
            std::vector<int>(perm.begin(), perm.end()));
    }
    random_value /= kDraws;

    TextTable outcome({"scheduler", "est. total BE thr",
                       "vs per-platform"});
    outcome.addRow({"per-platform models (POColo)",
                    fmt(best_value, 3), "0.0%"});
    outcome.addRow({"old-gen models everywhere",
                    fmt(naive_value, 3),
                    fmtPercent(naive_value / best_value - 1.0)});
    outcome.addRow({"random placement", fmt(random_value, 3),
                    fmtPercent(random_value / best_value - 1.0)});
    std::printf("%s", outcome.render().c_str());

    std::printf("\nchosen placement (per-platform models):\n");
    TextTable placement({"job", "server", "platform"});
    for (std::size_t i = 0; i < 8; ++i) {
        const auto j = static_cast<std::size_t>(best[i]);
        placement.addRow(
            {old_gen.be[i % 4].name() + "#" +
                 std::to_string(i / 4),
             spec_of(j).lc[j % 4].name() + "-" + std::to_string(j),
             spec_of(j).spec.name});
    }
    std::printf("%s", placement.render().c_str());

    // ---- fleet layer: one cluster per platform ----
    // The same mixed fleet through poco::fleet — two clusters (old
    // and new platform), evaluated end to end. The rollup must be
    // bit-identical for every thread count (the bench exits 1 if
    // not).
    std::printf("\nfleet layer: two clusters, eight servers:\n");
    const wl::AppSet old_set = makeAppSet(sim::xeonE5_2650());
    const wl::AppSet new_set = makeAppSet(newerPlatform());

    const FleetRun baseline = runFleet(old_set, new_set, 1);
    const std::uint64_t expected = baseline.rollup.fingerprint();
    bool identical = true;

    TextTable fleet_table({"threads", "fingerprint", "wall s",
                           "total BE thr (rps)"});
    bench::Json fleet_rows = bench::Json::array();
    for (const int threads : {1, 2, 4}) {
        const FleetRun run = threads == 1
                                 ? baseline
                                 : runFleet(old_set, new_set, threads);
        const std::uint64_t fp = run.rollup.fingerprint();
        identical = identical && fp == expected;
        char fp_hex[32];
        std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                      static_cast<unsigned long long>(fp));
        fleet_table.addRow(
            {std::to_string(threads), fp_hex, fmt(run.wallSeconds, 3),
             fmt(run.rollup.totalBeThroughput.value(), 1)});
        fleet_rows.push(
            bench::Json::object()
                .integer("threads", threads)
                .hex("fingerprint", fp)
                .num("wall_seconds", run.wallSeconds)
                .num("total_be_throughput_rps",
                     run.rollup.totalBeThroughput.value()));
    }
    std::printf("%s", fleet_table.render().c_str());

    // Machine-readable twin of the fleet table (CI archives it).
    bench::Json root = bench::Json::object();
    root.str("bench", "hetero")
        .hex("expected_fingerprint", expected)
        .child("fleet", fleet_rows)
        .flag("identical", identical);
    bench::writeJson(root, argc > 1 ? argv[1] : "BENCH_hetero.json");

    if (!identical) {
        std::printf("\nFAIL: fleet rollup fingerprints diverged "
                    "across thread counts\n");
        return 1;
    }
    std::printf("\nall fleet rollups bit-identical across "
                "{1,2,4} threads\n");
    return 0;
}
