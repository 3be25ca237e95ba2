/**
 * @file
 * The two streaming workloads: one closed-loop driver applies the
 * next control event as soon as the last one finished. Admission and
 * queueing are modeled in logical time by the control plane, so
 * wall-clock pacing is not part of the system's behaviour.
 *
 * ctrl-storm drives ctrl::ReplayEngine event by event exactly as
 * ControlPlane::replay does (construct, reserveRecords, apply...,
 * finish) over churn/crash/budget storms on 32 servers with cheap
 * synthetic cells. Its time is the solver ladder — mostly the events
 * that reach a cold LP — so it shows solver-ladder changes and must
 * not show cell or matrix changes.
 *
 * fleet-stream replays LoadShift-only logs through
 * FleetEvaluator::runStreaming on generated fleets with fitted-model
 * cells. Every event re-evaluates every cell, so it shows
 * delta-aware matrix updates; few events reach a cold LP.
 *
 * Each pass replays an ensemble of independently seeded inputs (28
 * storms, 4 fleets): how much of one input's work lands on expensive
 * rungs or expensive platforms swings with its seed, and pooling the
 * ensemble keeps that swing out of the run-to-run spread.
 *
 * The traced run wraps the cell model in a CellProbe (calls, busy
 * time, redundant calls) and joins each apply's time with its
 * record's solver tier. For fleet-stream it re-assembles the engine
 * from the evaluator's fitted models the way runStreaming does and
 * reports whether that replay reproduces runStreaming's fingerprint
 * (trace.fidelity).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cluster/performance_matrix.hpp"
#include "common.hpp"
#include "ctrl/control_plane.hpp"
#include "ctrl/event_log.hpp"
#include "fleet/scenario_fleet.hpp"
#include "runtime/thread_pool.hpp"
#include "scen/scenario.hpp"
#include "sim/telemetry_rollup.hpp"
#include "trace.hpp"
#include "util/milliwatts.hpp"

namespace bench
{

using namespace poco;

namespace
{

// ----- shared streaming machinery -------------------------------------

/**
 * Counts, times and de-duplicates cell-model calls made from any pool
 * thread. Each thread accumulates into its own padded slot; the totals
 * are read after the replay joined every task. A call is redundant
 * when its (be, server) cell was last evaluated at the same load —
 * the engine wrote the same input again.
 */
class CellProbe
{
  public:
    CellProbe(std::size_t be_pool, std::size_t servers)
        : id_(next_id_.fetch_add(1) + 1), servers_(servers),
          last_load_(be_pool * servers,
                     std::numeric_limits<double>::quiet_NaN())
    {}

    CellProbe(const CellProbe&) = delete;
    CellProbe& operator=(const CellProbe&) = delete;

    /** @p inner wrapped; the probe must outlive the returned model. */
    ctrl::CellModel
    wrap(ctrl::CellModel inner)
    {
        return [this, inner = std::move(inner)](
                   std::size_t be, std::size_t server, double load) {
            const auto t0 = std::chrono::steady_clock::now();
            const double value = inner(be, server, load);
            const auto t1 = std::chrono::steady_clock::now();
            Slot& slot = localSlot();
            ++slot.calls;
            slot.ns += std::chrono::duration_cast<
                           std::chrono::nanoseconds>(t1 - t0)
                           .count();
            // Row i of one apply is one BE, so each (be, server) cell
            // is written by a single task per event.
            double& last = last_load_[be * servers_ + server];
            if (last == load)
                ++slot.redundant;
            last = load;
            return value;
        };
    }

    /** Summed over every thread's slot. */
    struct Totals
    {
        std::uint64_t calls = 0;
        std::uint64_t redundant = 0;
        double busySeconds = 0.0;

        Totals&
        operator+=(const Totals& other)
        {
            calls += other.calls;
            redundant += other.redundant;
            busySeconds += other.busySeconds;
            return *this;
        }
    };

    Totals
    totals() const
    {
        const std::lock_guard<std::mutex> guard(mutex_);
        Totals sum;
        std::int64_t ns = 0;
        for (const Slot& slot : slots_) {
            sum.calls += slot.calls;
            sum.redundant += slot.redundant;
            ns += slot.ns;
        }
        sum.busySeconds = static_cast<double>(ns) * 1e-9;
        return sum;
    }

  private:
    struct alignas(64) Slot
    {
        std::uint64_t calls = 0;
        std::uint64_t redundant = 0;
        std::int64_t ns = 0;
    };

    Slot&
    localSlot()
    {
        thread_local std::uint64_t owner = 0;
        thread_local Slot* slot = nullptr;
        if (owner != id_) {
            const std::lock_guard<std::mutex> guard(mutex_);
            slot = &slots_.emplace_back();
            owner = id_;
        }
        return *slot;
    }

    static inline std::atomic<std::uint64_t> next_id_{0};
    /** Process-unique, so a thread's cached slot never outlives the
     *  probe it belongs to. */
    const std::uint64_t id_;
    const std::size_t servers_;
    std::vector<double> last_load_;
    mutable std::mutex mutex_;
    std::deque<Slot> slots_;
};

/**
 * One streaming input replayed once: its set-up (input generation and
 * construction), its replay, and the rollup. applySeconds is empty
 * when single events are not visible from outside (runStreaming).
 */
struct Sample
{
    double setupSeconds = 0.0;
    double replaySeconds = 0.0;
    double cpuSeconds = 0.0;
    std::size_t events = 0;
    std::vector<double> applySeconds;
    ctrl::CtrlRollup rollup;
};

/** One pass: every input of the workload's ensemble, once each. */
using Ensemble = std::vector<Sample>;

/**
 * ControlPlane::replay, event by event: construct, reserveRecords,
 * apply each event, finish. Set-up is the construction; traced runs
 * get one "ctrl.apply" span per event, annotated with the record's
 * solver tier once the replay finished.
 */
Sample
drive(const ctrl::CellModel& cells, const ctrl::ControlPlaneConfig& config,
      const cluster::SolverContext& context, const ctrl::EventLog& log,
      sim::TelemetryAggregator* telemetry)
{
    Sample out;
    out.events = log.size();
    out.applySeconds.reserve(log.size());
    std::vector<std::uint64_t> spans;
    const double t0 = wallNow();
    const double c0 = cpuNow();
    {
        trace::Span replay("ctrl.replay", false);
        replay.arg("events", static_cast<long long>(log.size()));
        trace::Span construct("ctrl.construct");
        ctrl::ReplayEngine engine(cells, config, context, telemetry);
        engine.reserveRecords(log.size());
        construct.end();
        const double t1 = wallNow();
        out.setupSeconds = t1 - t0;
        for (const ctrl::ControlEvent& event : log.events()) {
            trace::Span span("ctrl.apply");
            span.arg("event", ctrl::eventKindName(event.kind))
                .arg("subject", event.subject);
            const auto a0 = std::chrono::steady_clock::now();
            engine.apply(event);
            const std::chrono::duration<double> took =
                std::chrono::steady_clock::now() - a0;
            out.applySeconds.push_back(took.count());
            spans.push_back(span.id());
        }
        trace::Span finish("ctrl.finish");
        out.rollup = engine.finish(log.horizon()).value;
        finish.end();
        out.replaySeconds = wallNow() - t1;
    }
    out.cpuSeconds = cpuNow() - c0;
    const std::vector<ctrl::EventRecord>& records = out.rollup.records;
    for (std::size_t i = 0; i < spans.size() && i < records.size(); ++i)
        trace::annotate(spans[i], "tier", solverTierName(records[i].tier));
    return out;
}

std::uint64_t
semanticHash(const Ensemble& ensemble)
{
    Fnv h;
    for (const Sample& s : ensemble)
        h.u64(s.rollup.semanticFingerprint);
    return h.value();
}

std::uint64_t
fullHash(const Ensemble& ensemble)
{
    Fnv h;
    for (const Sample& s : ensemble)
        h.u64(s.rollup.fingerprint);
    return h.value();
}

std::uint64_t
eventCount(const Ensemble& ensemble)
{
    std::uint64_t n = 0;
    for (const Sample& s : ensemble)
        n += s.events;
    return n;
}

/** Events over replay seconds, the whole ensemble pooled. */
double
eventsPerSecond(const Ensemble& ensemble)
{
    double seconds = 0.0;
    for (const Sample& s : ensemble)
        seconds += s.replaySeconds;
    return static_cast<double>(eventCount(ensemble)) / seconds;
}

bool
oneRecordPerEvent(const Ensemble& ensemble)
{
    for (const Sample& s : ensemble)
        if (s.rollup.records.size() != s.events)
            return false;
    return true;
}

/** Events shed or placed on the Conservative tier. */
std::uint64_t
failedEvents(const Ensemble& ensemble)
{
    std::uint64_t n = 0;
    for (const Sample& s : ensemble)
        for (const ctrl::EventRecord& r : s.rollup.records)
            if (r.shed || r.tier == SolverTier::Conservative)
                ++n;
    return n;
}

/** Mean objective over the events that re-placed: the matrix value of
 *  the chosen assignment, i.e. the estimated cluster BE throughput. */
double
meanObjective(const Ensemble& ensemble)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const Sample& s : ensemble)
        for (const ctrl::EventRecord& r : s.rollup.records)
            if (r.tier != SolverTier::None) {
                sum += r.objective;
                ++n;
            }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/**
 * The untraced run both streaming workloads share: passes of the
 * ensemble of @p inputs inputs, input k replayed by runInput(k), until
 * the window is spent. A pass may fill the window alone, so after the
 * measured passes the first input is replayed once more, untimed:
 * every pass and that re-run must reproduce the first pass bit for bit.
 */
template <typename InputFn>
void
measureStreaming(const Options& options, Report& report, std::size_t inputs,
                 InputFn&& runInput)
{
    std::vector<double> setup;
    std::vector<double> rate;
    std::vector<double> apply;
    std::uint64_t first_hash = 0;
    std::uint64_t first_input = 0;
    std::uint64_t semantic = 0;
    double objective = 0.0;
    double rss = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool one_record_per_event = true;
    bool deterministic = true;
    repeatFor(options.seconds, 1, [&](std::size_t i) {
        Ensemble pass;
        for (std::size_t k = 0; k < inputs; ++k)
            pass.push_back(runInput(k));
        for (const Sample& s : pass) {
            setup.push_back(s.setupSeconds);
            apply.insert(apply.end(), s.applySeconds.begin(),
                         s.applySeconds.end());
        }
        rate.push_back(eventsPerSecond(pass));
        one_record_per_event =
            one_record_per_event && oneRecordPerEvent(pass);
        attempted += eventCount(pass);
        failed += failedEvents(pass);
        if (i == 0) {
            rss = peakRssMib();
            first_hash = fullHash(pass);
            first_input = pass.front().rollup.fingerprint;
            semantic = semanticHash(pass);
            objective = meanObjective(pass);
        }
        deterministic = deterministic && fullHash(pass) == first_hash;
    });
    deterministic =
        deterministic && runInput(0).rollup.fingerprint == first_input;
    report.setSemanticHash(semantic);
    report.setOperations(attempted, failed);
    report.check("one-record-per-event", one_record_per_event);
    report.check("deterministic-rerun", deterministic);
    checkGolden(report);
    report.metric("setup_s", median(setup), "s");
    report.metric("work_per_s", median(rate), "1/s");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("be_throughput", objective, "units/s");
    report.metric("failed_frac",
                  static_cast<double>(failed) /
                      static_cast<double>(attempted),
                  "fraction");
    report.metric("passes", static_cast<double>(rate.size()), "count");
    if (!apply.empty()) {
        report.metric("event_p50_ms", median(apply) * 1e3, "ms");
        report.metric("event_p99_ms", percentile(apply, 0.99) * 1e3, "ms");
        report.metric("event_samples", static_cast<double>(apply.size()),
                      "count");
    }
}

/** Per-layer streaming metrics of one traced ensemble. */
void
fillCtrlLayers(const Ensemble& ensemble, const CellProbe::Totals& cells,
               LayerMetrics& m)
{
    std::vector<std::vector<double>> by_rung(kRungs);
    std::vector<double> apply;
    double cpu = 0.0;
    double wall = 0.0;
    for (const Sample& s : ensemble) {
        const ctrl::CtrlRollup& rollup = s.rollup;
        const std::size_t n =
            std::min(rollup.records.size(), s.applySeconds.size());
        for (std::size_t i = 0; i < n; ++i) {
            const SolverTier tier = rollup.records[i].tier;
            if (tier == SolverTier::None) {
                ++m.noopEvents;
                continue;
            }
            const auto rung =
                static_cast<std::size_t>(tier) -
                static_cast<std::size_t>(SolverTier::Cached);
            by_rung[rung].push_back(s.applySeconds[i]);
        }
        apply.insert(apply.end(), s.applySeconds.begin(),
                     s.applySeconds.end());
        m.events += rollup.records.size();
        m.resolves += rollup.resolves;
        m.heartbeatSuspected += rollup.heartbeat.suspected;
        m.heartbeatDeaths += rollup.heartbeat.deaths;
        cpu += s.cpuSeconds;
        wall += s.setupSeconds + s.replaySeconds;
    }
    for (std::size_t r = 0; r < kRungs; ++r) {
        m.rungs[r].n = by_rung[r].size();
        for (const double s : by_rung[r])
            m.rungs[r].seconds += s;
        m.rungs[r].p50Ms = median(by_rung[r]) * 1e3;
    }
    for (const double s : apply)
        m.applyS += s;
    m.eventP50Ms = median(apply) * 1e3;
    m.eventP99Ms = percentile(apply, 0.99) * 1e3;
    m.cellEvals = cells.calls;
    m.cellsPerEvent = m.events > 0 ? static_cast<double>(cells.calls) /
                                         static_cast<double>(m.events)
                                   : 0.0;
    m.cellBusyS = cells.busySeconds;
    m.cellFrac = cpu > 0.0 ? cells.busySeconds / cpu : 0.0;
    m.cellRedundantFrac =
        cells.calls > 0 ? static_cast<double>(cells.redundant) /
                              static_cast<double>(cells.calls)
                        : 0.0;
    m.busyFrac = cpu / (wall * kRunnableThreads);
}

// ----- ctrl-storm ------------------------------------------------------

constexpr std::size_t kStormServers = 32;
/** Independent storms per pass: the cold-LP share of one storm swings
 *  with its seed, and a pass pools many to average that out. */
constexpr std::size_t kStormLogs = 28;
constexpr SimTime kStormHorizon = 80 * kSecond;

/**
 * bench_ctrl's synthetic cell: a fully mixed hash of (be, server)
 * shaped by load. The avalanche finalizer keeps cells generically
 * distinct, so optima are unique and every solver rung must agree.
 */
double
stormCell(std::size_t be, std::size_t server, double load)
{
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t w) {
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

ctrl::EventLogConfig
stormLogConfig(std::uint64_t seed, std::size_t k)
{
    ctrl::EventLogConfig config;
    config.horizon = kStormHorizon;
    config.servers = static_cast<int>(kStormServers);
    config.bePool = static_cast<int>(kStormServers);
    config.loadShiftRate = 1.0;
    config.beChurnRate = 0.3;
    config.crashRate = 0.1;
    config.budgetChangeRate = 0.05;
    config.meanOutage = 5 * kSecond;
    config.seed = deriveSeed(seed, 0xc7a10000 + 2 * k);
    return config;
}

ctrl::ControlPlaneConfig
stormPlaneConfig(std::uint64_t seed, std::size_t k)
{
    ctrl::ControlPlaneConfig config;
    config.servers = kStormServers;
    config.bePool = kStormServers;
    config.initialBe = (3 * kStormServers) / 4; // room for BE churn
    config.initialLoad = 0.5;
    config.perServerBudget = Watts{90.0};
    config.heartbeat.periodTicks = kSecond;
    config.heartbeat.jitterTicks = kSecond / 10;
    config.heartbeat.suspectMisses = 2;
    config.heartbeat.deadMisses = 4;
    config.heartbeat.seed = deriveSeed(seed, 0xc7a10001 + 2 * k);
    return config;
}

/** Storm @p k of the ensemble: generate its log, replay it. */
Sample
stormSample(const Options& options, const ctrl::CellModel& cells,
            runtime::ThreadPool& pool, std::size_t k, LayerMetrics* layers)
{
    cluster::SolverContext context;
    context.pool = &pool;
    const double t0 = wallNow();
    ctrl::EventLog log;
    {
        trace::Span span("ctrl.log_generate");
        log = ctrl::EventLog::generate(stormLogConfig(options.seed, k));
    }
    const double generated = wallNow() - t0;
    Sample s = drive(cells, stormPlaneConfig(options.seed, k), context, log,
                     nullptr);
    s.setupSeconds += generated;
    if (layers != nullptr)
        layers->logGenerateS += generated;
    return s;
}

Ensemble
stormPass(const Options& options, const ctrl::CellModel& cells,
          runtime::ThreadPool& pool, LayerMetrics* layers)
{
    Ensemble pass;
    for (std::size_t k = 0; k < kStormLogs; ++k)
        pass.push_back(stormSample(options, cells, pool, k, layers));
    return pass;
}

// ----- fleet-stream ----------------------------------------------------

/** Independent fleets per pass: one 32-cluster fleet's platform mix
 *  moves the per-cell cost by ~10%, and a pass pools several. */
constexpr std::size_t kStreamFleets = 4;
constexpr std::size_t kStreamClusters = 32;
constexpr int kStreamServersPerCluster = 2;
constexpr SimTime kStreamHorizon = 20 * kSecond;

scen::ScenarioSpec
streamSpec(std::uint64_t seed, std::size_t k)
{
    return scen::ScenarioSpec{}
        .withClusters(kStreamClusters)
        .withServersPerCluster(kStreamServersPerCluster)
        .withApps(2, 2)
        .withPlatformZipf(1.1)
        .withPlatformCount(4)
        .withSeed(deriveSeed(seed, 0x57ea0000 + 3 * k));
}

ctrl::EventLogConfig
streamLogConfig(std::uint64_t seed, std::size_t k)
{
    ctrl::EventLogConfig config;
    config.horizon = kStreamHorizon;
    config.servers =
        static_cast<int>(kStreamClusters * kStreamServersPerCluster);
    config.bePool = config.servers;
    config.loadShiftRate = 4.0;
    config.beChurnRate = 0.0;
    config.crashRate = 0.0;
    config.budgetChangeRate = 0.0;
    config.seed = deriveSeed(seed, 0x57ea0001 + 3 * k);
    return config;
}

struct StreamFleet
{
    std::unique_ptr<scen::Scenario> scenario;
    std::unique_ptr<fleet::FleetEvaluator> evaluator;
    ctrl::EventLog log;
    double setupSeconds = 0.0;
};

StreamFleet
streamSetup(const Options& options, std::size_t k,
            runtime::ThreadPool& pool, LayerMetrics* layers)
{
    StreamFleet f;
    const double t0 = wallNow();
    {
        trace::Span span("scen.generate");
        f.scenario = std::make_unique<scen::Scenario>(
            scen::Scenario::generate(streamSpec(options.seed, k), &pool));
    }
    const double t1 = wallNow();
    {
        trace::Span span("fleet.construct");
        FleetConfig config =
            FleetConfig{}
                .withSeed(deriveSeed(options.seed, 0x57ea0002 + 3 * k))
                .withPool(&pool);
        config.withScenario(*f.scenario);
        f.evaluator = std::make_unique<fleet::FleetEvaluator>(
            fleet::serversFromScenario(*f.scenario), config);
    }
    const double t2 = wallNow();
    {
        trace::Span span("ctrl.log_generate");
        f.log = ctrl::EventLog::generate(streamLogConfig(options.seed, k));
    }
    const double t3 = wallNow();
    f.setupSeconds = t3 - t0;
    if (layers != nullptr) {
        layers->scenGenerateS += t1 - t0;
        layers->fleetConstructS += t2 - t1;
        layers->logGenerateS += t3 - t2;
    }
    return f;
}

Sample
runStreamingSample(const StreamFleet& f)
{
    Sample s;
    s.setupSeconds = f.setupSeconds;
    s.events = f.log.size();
    const double t0 = wallNow();
    const double c0 = cpuNow();
    {
        trace::Span span("fleet.run_streaming", false);
        s.rollup = f.evaluator->runStreaming(f.log).value;
    }
    s.replaySeconds = wallNow() - t0;
    s.cpuSeconds = cpuNow() - c0;
    return s;
}

/**
 * The engine inputs FleetEvaluator::runStreaming assembles, rebuilt
 * from its public accessors: BE rows are every cluster's fitted
 * candidates in (cluster, candidate) order, server columns the fleet
 * servers in global index order, and each cell is estimateCellAtLoad
 * of the candidate's model against the host's LC model and platform.
 */
struct StreamingAssembly
{
    ctrl::CellModel cells;
    ctrl::ControlPlaneConfig config;
    cluster::SolverContext context;
    std::vector<std::size_t> clusterOf;
};

StreamingAssembly
assemble(const fleet::FleetEvaluator& evaluator)
{
    struct Entry
    {
        std::size_t cluster;
        std::size_t index;
    };
    const std::vector<fleet::FleetCluster>& clusters =
        evaluator.clusters();
    std::vector<Entry> be_table;
    std::size_t servers = 0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
        for (std::size_t b = 0;
             b < evaluator.clusterEvaluator(c).beModels().size(); ++b)
            be_table.push_back({c, b});
        servers += clusters[c].members.size();
    }
    std::vector<Entry> server_table(servers);
    for (std::size_t c = 0; c < clusters.size(); ++c)
        for (std::size_t k = 0; k < clusters[c].members.size(); ++k)
            server_table[clusters[c].members[k]] = {
                c, clusters[c].lcIndices[k]};

    const FleetConfig& fc = evaluator.config();
    StreamingAssembly a;
    const double headroom = fc.server.controller.headroom;
    a.cells = [&evaluator, be_table, server_table, headroom](
                  std::size_t be, std::size_t server, double load) {
        const Entry& cand = be_table[be];
        const Entry& host = server_table[server];
        return cluster::estimateCellAtLoad(
            evaluator.clusterEvaluator(cand.cluster).beModels()[cand.index],
            evaluator.clusterEvaluator(host.cluster).lcModels()[host.index],
            evaluator.clusters()[host.cluster].apps->spec, load, headroom);
    };

    ctrl::ControlPlaneConfig& cfg = a.config;
    cfg.servers = servers;
    cfg.bePool = be_table.size();
    cfg.initialBe = be_table.size();
    cfg.initialLoad = fc.streamingInitialLoad;
    long long provisioned_mw = 0;
    for (const fleet::FleetCluster& home : clusters)
        provisioned_mw += toMilliwatts(home.provisioned);
    cfg.perServerBudget = fromMilliwatts(
        provisioned_mw / static_cast<long long>(servers));
    cfg.heartbeat.periodTicks = fc.heartbeatPeriod;
    cfg.heartbeat.jitterTicks = fc.heartbeatJitter;
    cfg.heartbeat.suspectMisses = fc.heartbeatSuspectMisses;
    cfg.heartbeat.deadMisses = fc.heartbeatDeadMisses;
    cfg.heartbeat.seed = fc.seed;
    cfg.backpressure.enabled = fc.backpressureEnabled;
    cfg.backpressure.window = fc.backpressureWindow;
    cfg.backpressure.resolveCost = fc.backpressureResolveCost;
    cfg.forceCold = fc.streamingForceCold;

    a.context.pool = evaluator.pool();
    a.context.pivotCutoff = fc.solverPivotCutoff;
    a.context.pricingGrain = fc.solverPricingGrain;

    a.clusterOf.resize(servers);
    for (std::size_t s = 0; s < servers; ++s)
        a.clusterOf[s] = server_table[s].cluster;
    return a;
}

/**
 * Re-drive one fleet's log through a ReplayEngine assembled here, with
 * the cell model wrapped in a probe and telemetry attached as
 * runStreaming attaches it.
 */
Sample
replayFleet(const StreamFleet& f, CellProbe::Totals& cells,
            LayerMetrics& m)
{
    StreamingAssembly a = assemble(*f.evaluator);
    CellProbe probe(a.config.bePool, a.config.servers);
    const ctrl::CellModel probed = probe.wrap(std::move(a.cells));
    sim::TelemetryAggregator aggregator(
        std::move(a.clusterOf), f.evaluator->clusters().size(),
        f.evaluator->pool(), f.evaluator->config().asyncTelemetry);
    Sample s = drive(probed, a.config, a.context, f.log, &aggregator);
    {
        trace::Span span("sim.fold");
        (void)aggregator.drain();
    }
    cells += probe.totals();
    m.deltaPushes += aggregator.deltaPushes();
    return s;
}

} // namespace

void
runCtrlStorm(const Options& options, runtime::ThreadPool& pool,
             Report& report)
{
    report.note("shape", std::to_string(kStormLogs) + " storms x " +
                             std::to_string(kStormHorizon / kSecond) +
                             " s on " + std::to_string(kStormServers) +
                             " servers, synthetic cells");
    const ctrl::CellModel plain = stormCell;
    if (!options.traced()) {
        measureStreaming(options, report, kStormLogs, [&](std::size_t k) {
            return stormSample(options, plain, pool, k, nullptr);
        });
        return;
    }

    Ensemble baseline;
    {
        const trace::Suspend quiet;
        baseline = stormPass(options, plain, pool, nullptr);
    }
    LayerMetrics m;
    CellProbe probe(kStormServers, kStormServers);
    const Ensemble traced = stormPass(options, probe.wrap(plain), pool, &m);
    const bool same = fullHash(traced) == fullHash(baseline);
    report.setSemanticHash(semanticHash(traced));
    report.setOperations(eventCount(traced), failedEvents(traced));
    report.check("one-record-per-event", oneRecordPerEvent(traced));
    report.check("traced-equals-untraced", same);
    checkGolden(report);

    fillCtrlLayers(traced, probe.totals(), m);
    m.fidelity = same ? 1.0 : 0.0;
    m.overheadFrac = eventsPerSecond(baseline) / eventsPerSecond(traced) - 1.0;
    emitLayerMetrics(report, m);
}

void
runFleetStream(const Options& options, runtime::ThreadPool& pool,
               Report& report)
{
    report.note("shape",
                std::to_string(kStreamFleets) + " fleets x " +
                    std::to_string(kStreamClusters) + " clusters x " +
                    std::to_string(kStreamServersPerCluster) +
                    " servers, LoadShift-only " +
                    std::to_string(kStreamHorizon / kSecond) + " s logs");
    if (!options.traced()) {
        measureStreaming(options, report, kStreamFleets, [&](std::size_t k) {
            return runStreamingSample(streamSetup(options, k, pool, nullptr));
        });
        return;
    }

    // Untraced baseline; the traced pass (spans around the real calls);
    // then each fleet's log re-driven from this file.
    Ensemble baseline;
    {
        const trace::Suspend quiet;
        for (std::size_t k = 0; k < kStreamFleets; ++k)
            baseline.push_back(runStreamingSample(
                streamSetup(options, k, pool, nullptr)));
    }
    LayerMetrics m;
    Ensemble traced;
    Ensemble replayed;
    CellProbe::Totals cells;
    for (std::size_t k = 0; k < kStreamFleets; ++k) {
        const StreamFleet f = streamSetup(options, k, pool, &m);
        traced.push_back(runStreamingSample(f));
        replayed.push_back(replayFleet(f, cells, m));
    }
    report.setSemanticHash(semanticHash(traced));
    report.setOperations(eventCount(traced), failedEvents(traced));
    report.check("one-record-per-event", oneRecordPerEvent(traced));
    report.check("traced-equals-untraced",
                 fullHash(traced) == fullHash(baseline));
    checkGolden(report);

    fillCtrlLayers(replayed, cells, m);
    m.foldS = findLayer(trace::layerTable(), "sim.fold").busySeconds;
    m.fidelity = fullHash(replayed) == fullHash(traced) ? 1.0 : 0.0;
    m.overheadFrac =
        eventsPerSecond(baseline) / eventsPerSecond(replayed) - 1.0;
    emitLayerMetrics(report, m);
}

} // namespace bench
