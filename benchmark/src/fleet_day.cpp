/**
 * @file
 * fleet-day: one generated day of a hyperscale fleet through the
 * batch path (fleet::FleetEvaluator::run).
 *
 * The fleet shape follows the hyperscale colocation study poco::scen
 * encodes: Zipf-ranked platform generations, diurnal load with
 * regional flash crowds. Almost all of a cold run() is per-server
 * simulation (runServerScenario), so this workload shows server-sim,
 * pair-memo, telemetry and sharding changes, and must show nothing
 * for placement-solver changes: every cluster places a 2x2 matrix.
 *
 * Each pass generates the scenario and constructs a fresh evaluator
 * (set-up), then runs the day cold: the evaluator memoizes pair runs,
 * so a second run() on one evaluator would measure the memo instead.
 *
 * The traced run times generate / construct / run as spans, then
 * replays the layers on the same inputs from this file — profile,
 * fit, matrix build, placement without memo, one server simulation
 * per distinct memo key, telemetry fold — and checks that the replay
 * reproduces the evaluator's matrices, per-cluster BE throughput and
 * folded telemetry bit for bit (trace.fidelity).
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/placement.hpp"
#include "common.hpp"
#include "fleet/scenario_fleet.hpp"
#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "scen/scenario.hpp"
#include "server/primary_controller.hpp"
#include "server/server_manager.hpp"
#include "trace.hpp"
#include "util/milliwatts.hpp"
#include "util/rng.hpp"

namespace bench
{

using namespace poco;

namespace
{

constexpr std::size_t kClusters = 256;
constexpr int kServersPerCluster = 4;
constexpr int kEpochs = 8;
constexpr SimTime kDwell = 30 * kSecond;
constexpr SimTime kWarmup = 5 * kSecond;
constexpr int kShards = 16;

scen::ScenarioSpec
specFor(std::uint64_t seed)
{
    return scen::ScenarioSpec{}
        .withClusters(kClusters)
        .withServersPerCluster(kServersPerCluster)
        .withApps(2, 2)
        .withPlatformZipf(1.1)
        .withPlatformCount(4)
        .withRegions(8)
        .withEpochs(kEpochs)
        .withFlashCrowds(2, 0.5, 1 * kHour)
        .withSeed(deriveSeed(seed, 0xf1ee7d01));
}

FleetConfig
configFor(std::uint64_t seed, runtime::ThreadPool& pool,
          const scen::Scenario& scenario)
{
    FleetConfig config = FleetConfig{}
                             .withDwell(kDwell)
                             .withSeed(deriveSeed(seed, 0xf1ee7d02))
                             .withShards(kShards)
                             .withPool(&pool);
    config.server.warmup = kWarmup;
    config.withScenario(scenario);
    return config;
}

void
hashRollup(Fnv& h, const sim::EpochRollup& r)
{
    h.u64(static_cast<std::uint64_t>(r.start));
    h.u64(static_cast<std::uint64_t>(r.end));
    h.u64(r.samples);
    h.f64(r.meanPower.value());
    h.f64(r.meanBeThroughput.value());
    h.f64(r.energy.value());
    h.f64(r.capOvershoot.value());
    h.f64(r.maxLatencyP99);
}

bool
sameRollup(const sim::EpochRollup& a, const sim::EpochRollup& b)
{
    Fnv ha;
    Fnv hb;
    hashRollup(ha, a);
    hashRollup(hb, b);
    return ha.value() == hb.value();
}

/** Every ClusterEpochOutcome field except tier and attempts. */
std::uint64_t
semanticHash(const fleet::FleetRollup& rollup)
{
    Fnv h;
    h.u64(rollup.epochs.size());
    for (const fleet::FleetEpoch& epoch : rollup.epochs) {
        h.f64(epoch.load);
        h.f64(epoch.fleetBudget.value());
        for (const fleet::ClusterEpochOutcome& c : epoch.clusters) {
            h.u64(c.cluster);
            h.f64(c.budget.value());
            h.f64(c.memberCap.value());
            h.u64((c.degradation.conservative ? 1u : 0u) |
                  (c.degradation.modelsUntrusted ? 2u : 0u) |
                  (c.degradation.workShed ? 4u : 0u) |
                  (c.degradation.budgetClamped ? 8u : 0u));
            h.f64(c.beThroughput.value());
            h.f64(c.energy.value());
            h.f64(c.meanDraw.value());
            h.u64(c.capped ? 1 : 0);
            hashRollup(h, c.telemetry);
        }
        hashRollup(h, epoch.telemetry);
    }
    h.f64(rollup.totalBeThroughput.value());
    h.f64(rollup.totalEnergy.value());
    h.f64(rollup.totalCapOvershoot.value());
    return h.value();
}

/** Budget conservation: every epoch's cluster budgets sum to the
 *  fleet budget exactly, in integer milliwatts. */
bool
budgetsConserved(const fleet::FleetRollup& rollup)
{
    for (const fleet::FleetEpoch& epoch : rollup.epochs) {
        long long sum = 0;
        for (const fleet::ClusterEpochOutcome& c : epoch.clusters)
            sum += toMilliwatts(c.budget);
        if (sum != toMilliwatts(epoch.fleetBudget))
            return false;
    }
    return true;
}

std::uint64_t
conservativeEpochs(const fleet::FleetRollup& rollup)
{
    std::uint64_t n = 0;
    for (const fleet::FleetEpoch& epoch : rollup.epochs)
        for (const fleet::ClusterEpochOutcome& c : epoch.clusters)
            if (c.tier == SolverTier::Conservative)
                ++n;
    return n;
}

/** One pass: set-up (generate + construct) then the cold run. */
struct Pass
{
    double setupSeconds = 0.0;
    double runSeconds = 0.0;
    double cpuSeconds = 0.0;
    std::unique_ptr<scen::Scenario> scenario;
    std::unique_ptr<fleet::FleetEvaluator> evaluator;
    fleet::FleetRollup rollup;
};

Pass
runPass(const Options& options, runtime::ThreadPool& pool,
        LayerMetrics* layers)
{
    Pass pass;
    const double t0 = wallNow();
    const double c0 = cpuNow();
    {
        trace::Span span("scen.generate");
        pass.scenario = std::make_unique<scen::Scenario>(
            scen::Scenario::generate(specFor(options.seed), &pool));
    }
    const double t1 = wallNow();
    {
        trace::Span span("fleet.construct", false);
        pass.evaluator = std::make_unique<fleet::FleetEvaluator>(
            fleet::serversFromScenario(*pass.scenario),
            configFor(options.seed, pool, *pass.scenario));
    }
    const double t2 = wallNow();
    {
        trace::Span span("fleet.run", false);
        pass.rollup = pass.evaluator->run().value;
    }
    const double t3 = wallNow();
    pass.setupSeconds = t2 - t0;
    pass.runSeconds = t3 - t2;
    pass.cpuSeconds = cpuNow() - c0;
    if (layers != nullptr) {
        layers->scenGenerateS = t1 - t0;
        layers->fleetConstructS = t2 - t1;
    }
    return pass;
}

double
requestedSimSeconds()
{
    return static_cast<double>(kClusters * kServersPerCluster *
                               kEpochs) *
           toSeconds(kWarmup + kDwell);
}

/** Exact memo key of one pair run: (LC, BE, load bits, cap bits). */
using SimKey = std::tuple<std::size_t, int, std::uint64_t, std::uint64_t>;

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** Layer replay of one pass; returns true when every output matched. */
bool
replayLayers(const Pass& pass, runtime::ThreadPool& pool,
             LayerMetrics& m)
{
    const fleet::FleetEvaluator& evaluator = *pass.evaluator;
    const FleetConfig& config = evaluator.config();
    const std::vector<fleet::FleetCluster>& clusters =
        evaluator.clusters();
    const std::size_t n_clusters = clusters.size();

    trace::Span phase("replay", false);
    trace::setPhaseParent(phase.id());

    // Profile and fit with the per-cluster seeds FleetEvaluator
    // derives: Rng(config.seed).split(c), then the ClusterEvaluator's
    // profiler-seed mix.
    struct Models
    {
        std::vector<cluster::LcServerModel> lc;
        std::vector<cluster::BeCandidateModel> be;
    };
    std::vector<Models> models(n_clusters);
    const Rng root(config.seed);
    runtime::parallelFor(&pool, n_clusters, [&](std::size_t c) {
        const wl::AppSet& apps = *clusters[c].apps;
        Rng stream = root.split(c);
        const std::uint64_t cluster_seed = stream.nextU64();
        model::ProfilerConfig profiler_config = config.profiler;
        profiler_config.seed ^= cluster_seed * 0x9e3779b97f4a7c15ULL;
        const model::Profiler profiler(profiler_config);
        const model::UtilityFitter fitter;
        for (const wl::LcApp& lc : apps.lc) {
            std::vector<model::ProfileSample> samples;
            {
                trace::Span span("model.profile");
                span.arg("cluster", static_cast<long long>(c))
                    .arg("app", lc.name());
                samples = profiler.profileLc(lc, &pool);
            }
            trace::Span span("model.fit");
            span.arg("cluster", static_cast<long long>(c));
            models[c].lc.push_back({lc.name(), fitter.fit(samples),
                                    lc.peakLoad(),
                                    lc.provisionedPower()});
        }
        for (const wl::BeApp& be : apps.be) {
            std::vector<model::ProfileSample> samples;
            {
                trace::Span span("model.profile");
                span.arg("cluster", static_cast<long long>(c))
                    .arg("app", be.name());
                samples = profiler.profileBe(be, &pool);
            }
            trace::Span span("model.fit");
            span.arg("cluster", static_cast<long long>(c));
            models[c].be.push_back({be.name(), fitter.fit(samples)});
        }
    });

    // Matrix build, bitwise against the evaluator's own matrix.
    std::vector<cluster::PerformanceMatrix> matrices(n_clusters);
    std::vector<char> matrix_ok(n_clusters, 0);
    runtime::parallelFor(&pool, n_clusters, [&](std::size_t c) {
        cluster::MatrixConfig mc;
        mc.loadPoints = config.loadPoints;
        mc.headroom = config.server.controller.headroom;
        {
            trace::Span span("cluster.matrix");
            span.arg("cluster", static_cast<long long>(c));
            matrices[c] = cluster::buildPerformanceMatrix(
                models[c].be, models[c].lc, clusters[c].apps->spec, mc,
                &pool);
        }
        const cluster::PerformanceMatrix& want =
            evaluator.clusterEvaluator(c).matrix();
        const cluster::PerformanceMatrix& got = matrices[c];
        bool same = want.rows() == got.rows() && want.cols() == got.cols();
        for (std::size_t i = 0; same && i < got.rows(); ++i)
            same = std::memcmp(want.row(i), got.row(i),
                               got.cols() * sizeof(double)) == 0;
        matrix_ok[c] = same ? 1 : 0;
    });

    // Placement (no memo), one server simulation per distinct memo
    // key, and the telemetry fold — per cluster, epochs in order.
    struct ClusterTally
    {
        std::uint64_t sims = 0;
        std::uint64_t hits = 0;
        std::uint64_t foldSamples = 0;
        std::uint64_t attempts = 0;
        std::uint64_t tiers[static_cast<int>(SolverTier::Conservative) +
                            1] = {};
        bool ok = true;
    };
    std::vector<ClusterTally> tally(n_clusters);
    const std::size_t width = config.epochClusterWidth;
    const SimTime fold_start = config.server.warmup;
    const SimTime fold_end = config.server.warmup + config.dwell;
    server::ServerManagerConfig server_config = config.server;
    server_config.keepTelemetry = true;
    runtime::parallelFor(&pool, n_clusters, [&](std::size_t c) {
        const fleet::FleetCluster& home = clusters[c];
        const wl::AppSet& apps = *home.apps;
        ClusterTally& t = tally[c];

        // The distinct LC servers this cluster exposes and the BE rows
        // that compete for them (ClusterEvaluator::placeBeRobust).
        std::vector<int> up;
        for (const std::size_t j : home.lcIndices)
            up.push_back(static_cast<int>(j));
        std::sort(up.begin(), up.end());
        up.erase(std::unique(up.begin(), up.end()), up.end());
        const cluster::PerformanceMatrix& full = matrices[c];
        std::vector<std::size_t> rows(full.rows());
        for (std::size_t i = 0; i < rows.size(); ++i)
            rows[i] = i;
        if (rows.size() > up.size()) {
            std::vector<double> score(rows.size(), 0.0);
            for (std::size_t i = 0; i < rows.size(); ++i)
                for (const int j : up)
                    score[i] = std::max(
                        score[i], full(i, static_cast<std::size_t>(j)));
            std::stable_sort(rows.begin(), rows.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return score[a] > score[b];
                             });
            rows.resize(up.size());
            std::sort(rows.begin(), rows.end());
        }
        cluster::PerformanceMatrix sub;
        sub.resize(rows.size(), up.size());
        for (std::size_t k = 0; k < rows.size(); ++k)
            for (std::size_t u = 0; u < up.size(); ++u)
                sub(k, u) = full(rows[k], static_cast<std::size_t>(up[u]));
        cluster::SolverContext context;
        context.pool = &pool;

        std::map<SimKey, server::ServerRunResult> memo;
        for (std::size_t e = 0; e < pass.rollup.epochs.size(); ++e) {
            const fleet::ClusterEpochOutcome& want =
                pass.rollup.epochs[e].clusters[c];
            Outcome<std::vector<int>> placed;
            {
                trace::Span span("cluster.place");
                span.arg("cluster", static_cast<long long>(c))
                    .arg("epoch", static_cast<long long>(e));
                placed = cluster::placeWithFallback(sub, context);
                span.arg("tier", solverTierName(placed.tier));
            }
            t.attempts += static_cast<std::uint64_t>(placed.attempts);
            ++t.tiers[static_cast<int>(placed.tier)];
            std::vector<int> be_of(apps.lc.size(), -1);
            for (std::size_t k = 0; k < rows.size(); ++k)
                be_of[static_cast<std::size_t>(
                    up[static_cast<std::size_t>(placed.value[k])])] =
                    static_cast<int>(rows[k]);

            const double load =
                width > 0 ? config.epochClusterLoads[e * width + c]
                          : config.epochLoads[e];
            const Watts cap = want.memberCap;
            Rps throughput{};
            sim::EpochRollup folded;
            folded.start = fold_start;
            folded.end = fold_end;
            for (const std::size_t j : home.lcIndices) {
                const SimKey key{j, be_of[j], bitsOf(load),
                                 bitsOf(cap.value())};
                auto it = memo.find(key);
                if (it == memo.end()) {
                    trace::Span span("server.sim");
                    span.arg("cluster", static_cast<long long>(c))
                        .arg("epoch", static_cast<long long>(e));
                    const wl::BeApp* be =
                        be_of[j] >= 0
                            ? &apps.be[static_cast<std::size_t>(be_of[j])]
                            : nullptr;
                    server::ServerRunResult run = server::runServerScenario(
                        apps.lc[j], be, cap,
                        std::make_unique<server::PomController>(
                            models[c].lc[j].utility,
                            server_config.controller),
                        wl::LoadTrace::constant(load),
                        server_config.warmup + config.dwell,
                        server_config);
                    ++t.sims;
                    it = memo.emplace(key, std::move(run)).first;
                } else {
                    ++t.hits;
                }
                const server::ServerRunResult& run = it->second;
                throughput += run.stats.averageBeThroughput();
                if (!run.telemetry.empty()) {
                    trace::Span span("sim.fold");
                    folded += sim::foldTelemetry(run.telemetry, cap,
                                                 fold_start, fold_end);
                }
                t.foldSamples += run.telemetry.size();
            }
            if (throughput != want.beThroughput ||
                !sameRollup(folded, want.telemetry))
                t.ok = false;
        }
    });
    phase.end();
    trace::setPhaseParent(0);

    bool ok = true;
    for (std::size_t c = 0; c < n_clusters; ++c) {
        ok = ok && matrix_ok[c] != 0 && tally[c].ok;
        m.simCalls += tally[c].sims;
        m.simMemoHits += tally[c].hits;
        m.foldSamples += tally[c].foldSamples;
        m.placeAttempts += tally[c].attempts;
        m.tierLp += tally[c].tiers[static_cast<int>(SolverTier::Lp)];
        m.tierHungarian +=
            tally[c].tiers[static_cast<int>(SolverTier::Hungarian)];
        m.tierGreedy += tally[c].tiers[static_cast<int>(SolverTier::Greedy)];
        m.tierConservative +=
            tally[c].tiers[static_cast<int>(SolverTier::Conservative)];
        m.matrixCells += matrices[c].rows() * matrices[c].cols();
    }
    m.placeCalls = n_clusters * pass.rollup.epochs.size();
    return ok;
}

} // namespace

void
runFleetDay(const Options& options, runtime::ThreadPool& pool,
            Report& report)
{
    report.note("shape", std::to_string(kClusters) + " clusters x " +
                             std::to_string(kServersPerCluster) +
                             " servers, apps (2,2), " +
                             std::to_string(kEpochs) + " epochs");
    const double work = requestedSimSeconds();

    if (!options.traced()) {
        std::vector<double> setup;
        std::vector<double> run;
        std::uint64_t hash = 0;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        bool deterministic = true;
        bool conserved = true;
        double be_throughput = 0.0;
        double overshoot = 0.0;
        double rss = 0.0;
        repeatFor(options.seconds, 3, [&](std::size_t i) {
            Pass pass = runPass(options, pool, nullptr);
            setup.push_back(pass.setupSeconds);
            run.push_back(pass.runSeconds);
            const std::uint64_t h = semanticHash(pass.rollup);
            if (i == 0) {
                hash = h;
                be_throughput = pass.rollup.totalBeThroughput.value() /
                                static_cast<double>(kClusters *
                                                    kServersPerCluster *
                                                    kEpochs);
                overshoot = pass.rollup.totalCapOvershoot.value();
                rss = peakRssMib();
            }
            deterministic = deterministic && h == hash;
            conserved = conserved && budgetsConserved(pass.rollup);
            attempted += kClusters * kEpochs;
            failed += conservativeEpochs(pass.rollup);
        });
        report.setSemanticHash(hash);
        report.setOperations(attempted, failed);
        report.check("deterministic-passes", deterministic);
        report.check("budget-conserved-mw", conserved);
        checkGolden(report);
        report.metric("setup_s", median(setup), "s");
        report.metric("work_per_s", work / median(run), "1/s");
        report.metric("peak_rss_mb", rss, "MiB");
        report.metric("be_throughput", be_throughput, "units/s");
        report.metric("cap_overshoot_j", overshoot, "J");
        report.metric("failed_frac",
                      static_cast<double>(failed) /
                          static_cast<double>(attempted),
                      "fraction");
        report.metric("passes", static_cast<double>(run.size()), "count");
        return;
    }

    // Traced run: an untraced baseline pass, the traced pass, then the
    // layer replay on the traced pass's own inputs.
    std::uint64_t baseline_hash = 0;
    double baseline_seconds = 0.0;
    {
        const trace::Suspend quiet;
        const Pass base = runPass(options, pool, nullptr);
        baseline_hash = semanticHash(base.rollup);
        baseline_seconds = base.setupSeconds + base.runSeconds;
    }
    LayerMetrics m;
    const Pass pass = runPass(options, pool, &m);
    const std::uint64_t hash = semanticHash(pass.rollup);
    report.setSemanticHash(hash);
    report.setOperations(kClusters * kEpochs,
                         conservativeEpochs(pass.rollup));
    report.check("traced-equals-untraced", hash == baseline_hash);
    report.check("budget-conserved-mw", budgetsConserved(pass.rollup));
    checkGolden(report);

    const bool replayed = replayLayers(pass, pool, m);
    const std::vector<LayerRow> table = trace::layerTable();
    const LayerRow profile = findLayer(table, "model.profile");
    const LayerRow fit = findLayer(table, "model.fit");
    m.profileS = profile.busySeconds;
    m.profileCalls = profile.calls;
    m.fitS = fit.busySeconds;
    m.fitCalls = fit.calls;
    m.matrixS = findLayer(table, "cluster.matrix").busySeconds;
    m.placeS = findLayer(table, "cluster.place").busySeconds;
    m.simS = findLayer(table, "server.sim").busySeconds;
    m.simPomS = m.simS;
    m.foldS = findLayer(table, "sim.fold").busySeconds;
    const double simulated =
        static_cast<double>(m.simCalls) * toSeconds(kWarmup + kDwell);
    m.hostUsPerSimS = simulated > 0.0 ? m.simS * 1e6 / simulated : 0.0;
    m.busyFrac = pass.cpuSeconds /
                 ((pass.setupSeconds + pass.runSeconds) *
                  kRunnableThreads);
    m.fidelity = replayed ? 1.0 : 0.0;
    m.overheadFrac =
        (pass.setupSeconds + pass.runSeconds) / baseline_seconds - 1.0;
    emitLayerMetrics(report, m);
}

} // namespace bench
