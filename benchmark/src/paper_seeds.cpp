/**
 * @file
 * paper-seeds: the paper's calibrated 4 LC x 4 BE cluster
 * (wl::defaultAppSet) under its three policies — Random, POM and
 * POColo (Figs. 12-13) — for kSeeds seeds derived from --seed.
 *
 * It drives the same server layer as fleet-day differently: stepped
 * 10-90% traces over 9 points x 120 s, Heracles with 3 replicas for
 * Random, LP placement on the full 4x4 matrix, and POColo reusing the
 * POM pair memo. It carries the paper's headline number (POColo's
 * throughput gain over Random, averaged over seeds) and is the
 * workload for multi-seed claims.
 *
 * The seeds are independent, so a pass runs them the way a multi-seed
 * study uses a 4-core host: all at once on the shared pool. Set-up
 * constructs every seed's ClusterEvaluator; the run then evaluates
 * every seed's three policies, in policy order within a seed.
 *
 * The traced run goes one seed at a time instead, so that the process
 * CPU time measured around one call belongs to that call.
 */

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_evaluator.hpp"
#include "common.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "trace.hpp"
#include "wl/registry.hpp"

namespace bench
{

using namespace poco;

namespace
{

constexpr std::size_t kSeeds = 16;
constexpr cluster::Policy kPolicies[] = {
    cluster::Policy::Random, cluster::Policy::Pom,
    cluster::Policy::PoColo};

/** One seed's results (and, when traced, its CPU attribution). */
struct Unit
{
    /** CPU seconds of every thread while each call ran — meaningful
     *  only when seeds run one at a time. */
    double constructCpuSeconds = 0.0;
    double policyCpuSeconds[3] = {};
    double randomMean = 0.0;
    double pocoloMean = 0.0;
    /** Policy runs that left a server without its LC app's outcome or,
     *  for POColo, without a co-located BE app. */
    std::uint64_t failed = 0;
    /** Per-policy, per-server BE throughput and energy bits. */
    std::uint64_t hash = 0;
};

std::unique_ptr<cluster::ClusterEvaluator>
construct(const wl::AppSet& apps, std::uint64_t seed,
          runtime::ThreadPool& pool, Unit& unit)
{
    trace::Span span("cluster.construct");
    const double c0 = cpuNow();
    auto evaluator = std::make_unique<cluster::ClusterEvaluator>(
        apps, FleetConfig{}.withSeed(seed).withPool(&pool));
    unit.constructCpuSeconds = cpuNow() - c0;
    return evaluator;
}

/** The three policies in order: POColo reuses POM's pair memo. */
void
runPolicies(const cluster::ClusterEvaluator& evaluator, Unit& unit)
{
    if (trace::enabled()) {
        // Traced only: the LP placement POColo uses, as its own span.
        // POColo's own solve then hits the evaluator's solve memo.
        trace::Span span("cluster.place");
        span.arg("kind", "lp");
        (void)evaluator.placeBe(cluster::PlacementKind::Lp);
    }
    Fnv h;
    for (std::size_t p = 0; p < 3; ++p) {
        const double c0 = cpuNow();
        cluster::ClusterOutcome outcome;
        {
            trace::Span span(p == 0 ? "server.sim_heracles"
                                    : "server.sim_pom");
            span.arg("policy", cluster::policyName(kPolicies[p]));
            outcome = evaluator.runPolicy(kPolicies[p]);
        }
        unit.policyCpuSeconds[p] = cpuNow() - c0;
        bool complete =
            outcome.servers.size() == evaluator.apps().lc.size();
        h.u64(outcome.servers.size());
        for (const cluster::ServerOutcome& s : outcome.servers) {
            h.f64(s.run.stats.averageBeThroughput().value());
            h.f64(s.run.stats.energyJoules.value());
            // runAssignment names a server whose BE was parked "(none)".
            if (kPolicies[p] == cluster::Policy::PoColo &&
                s.beName == "(none)")
                complete = false;
        }
        unit.failed += complete ? 0 : 1;
        if (kPolicies[p] == cluster::Policy::Random)
            unit.randomMean = outcome.meanBeThroughput();
        if (kPolicies[p] == cluster::Policy::PoColo)
            unit.pocoloMean = outcome.meanBeThroughput();
    }
    unit.hash = h.value();
}

/** Simulated seconds of one pair run (warm-up + stepped trace). */
double
pairRunSeconds(const FleetConfig& config)
{
    return toSeconds(config.server.warmup +
                     config.dwell *
                         static_cast<SimTime>(config.loadPoints.size()));
}

/** Pair runs one seed requests, memo hits included: Random runs every
 *  (LC, BE) pair per Heracles replica, POM every pair once, and POColo
 *  one pair per server. */
std::uint64_t
requestedPairRuns(const wl::AppSet& apps, const FleetConfig& config)
{
    const std::uint64_t pairs = apps.lc.size() * apps.be.size();
    return pairs * static_cast<std::uint64_t>(config.heraclesReplicas) +
           pairs + apps.lc.size();
}

/** Every seed once, with the sweep's summary. */
struct Sweep
{
    std::vector<Unit> units;
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    std::uint64_t hash = 0;
    double gainPct = 0.0;
    double pocoloMean = 0.0;
    std::uint64_t failed = 0;
};

void
summarize(Sweep& sweep)
{
    Fnv h;
    for (const Unit& u : sweep.units) {
        h.u64(u.hash);
        sweep.gainPct += 100.0 * (u.pocoloMean / u.randomMean - 1.0);
        sweep.pocoloMean += u.pocoloMean;
        sweep.failed += u.failed;
    }
    sweep.hash = h.value();
    sweep.gainPct /= kSeeds;
    sweep.pocoloMean /= kSeeds;
}

/** Untraced pass: every seed at once, set-up then run. */
Sweep
concurrentSweep(const wl::AppSet& apps,
                const std::vector<std::uint64_t>& seeds,
                runtime::ThreadPool& pool)
{
    Sweep sweep;
    sweep.units.resize(kSeeds);
    std::vector<std::unique_ptr<cluster::ClusterEvaluator>> evaluators(
        kSeeds);
    const double t0 = wallNow();
    runtime::parallelFor(&pool, kSeeds, [&](std::size_t k) {
        evaluators[k] = construct(apps, seeds[k], pool, sweep.units[k]);
    });
    const double t1 = wallNow();
    runtime::parallelFor(&pool, kSeeds, [&](std::size_t k) {
        runPolicies(*evaluators[k], sweep.units[k]);
    });
    sweep.setupSeconds = t1 - t0;
    sweep.runSeconds = wallNow() - t1;
    summarize(sweep);
    return sweep;
}

/** Traced run's pass: one seed at a time. */
Sweep
sequentialSweep(const wl::AppSet& apps,
                const std::vector<std::uint64_t>& seeds,
                runtime::ThreadPool& pool)
{
    Sweep sweep;
    sweep.units.resize(kSeeds);
    const double t0 = wallNow();
    for (std::size_t k = 0; k < kSeeds; ++k) {
        trace::Span root("paper.seed", false);
        root.arg("seed", hex64(seeds[k]));
        const auto evaluator =
            construct(apps, seeds[k], pool, sweep.units[k]);
        runPolicies(*evaluator, sweep.units[k]);
    }
    sweep.runSeconds = wallNow() - t0;
    summarize(sweep);
    return sweep;
}

} // namespace

void
runPaperSeeds(const Options& options, runtime::ThreadPool& pool,
              Report& report)
{
    const wl::AppSet apps = wl::defaultAppSet();
    const FleetConfig defaults;
    const double work = static_cast<double>(kSeeds *
                                            requestedPairRuns(apps,
                                                              defaults)) *
                        pairRunSeconds(defaults);
    std::vector<std::uint64_t> seeds(kSeeds);
    for (std::size_t k = 0; k < kSeeds; ++k)
        seeds[k] = deriveSeed(options.seed, 0x9a9e0000 + k);
    report.note("shape", "defaultAppSet 4 LC x 4 BE, " +
                             std::to_string(kSeeds) +
                             " concurrent seeds x {Random, POM, POColo}");

    if (!options.traced()) {
        Sweep first;
        std::vector<double> setup;
        std::vector<double> rate;
        std::uint64_t failed = 0;
        bool deterministic = true;
        double rss = 0.0;
        const std::size_t passes =
            repeatFor(options.seconds, 2, [&](std::size_t i) {
                Sweep sweep = concurrentSweep(apps, seeds, pool);
                setup.push_back(sweep.setupSeconds);
                rate.push_back(work / sweep.runSeconds);
                failed += sweep.failed;
                if (i == 0) {
                    rss = peakRssMib();
                    first = std::move(sweep);
                } else {
                    deterministic =
                        deterministic && sweep.hash == first.hash;
                }
            });
        const std::uint64_t attempted = 3 * kSeeds * passes;
        report.setSemanticHash(first.hash);
        report.setOperations(attempted, failed);
        report.check("deterministic-passes", deterministic);
        report.check("pocolo-beats-random", first.gainPct > 0.0,
                     std::to_string(first.gainPct) + "%");
        checkGolden(report);
        report.metric("setup_s", median(setup), "s");
        report.metric("work_per_s", median(rate), "1/s");
        report.metric("peak_rss_mb", rss, "MiB");
        report.metric("be_throughput", first.pocoloMean, "units/s");
        report.metric("pocolo_gain_pct", first.gainPct, "%");
        report.metric("failed_frac",
                      static_cast<double>(failed) /
                          static_cast<double>(attempted),
                      "fraction");
        report.metric("passes", static_cast<double>(passes), "count");
        return;
    }

    // Traced run: one untraced sweep as the baseline, one traced.
    Sweep baseline;
    {
        const trace::Suspend quiet;
        baseline = sequentialSweep(apps, seeds, pool);
    }
    const double c0 = cpuNow();
    const Sweep traced = sequentialSweep(apps, seeds, pool);
    const double cpu = cpuNow() - c0;
    report.setSemanticHash(traced.hash);
    report.setOperations(3 * kSeeds, traced.failed);
    report.check("traced-equals-untraced", traced.hash == baseline.hash);
    checkGolden(report);

    // The construct and policy spans wrap calls that fan out over the
    // pool, so their busy time is the CPU time of all threads inside
    // them, not the span's wall time. The library exposes neither the
    // pair runs behind runPolicy nor the tier of placeBe's solve, so
    // the simulation, memo, tier and attempt counts stay 0 here.
    LayerMetrics m;
    for (const Unit& u : traced.units) {
        m.clusterConstructS += u.constructCpuSeconds;
        m.simHeraclesS += u.policyCpuSeconds[0];
        m.simPomS += u.policyCpuSeconds[1] + u.policyCpuSeconds[2];
    }
    m.simS = m.simHeraclesS + m.simPomS;
    const LayerRow place = findLayer(trace::layerTable(), "cluster.place");
    m.placeS = place.busySeconds;
    m.placeCalls = place.calls;
    m.busyFrac = cpu / (traced.runSeconds * kRunnableThreads);
    m.fidelity = traced.hash == baseline.hash ? 1.0 : 0.0;
    m.overheadFrac = traced.runSeconds / baseline.runSeconds - 1.0;
    emitLayerMetrics(report, m);
}

} // namespace bench
