/**
 * @file
 * Shared pieces of the repository benchmark: options, seeds, clocks,
 * order statistics, the FNV-1a result hash, and the Report that every
 * workload fills and main() writes out.
 *
 * The benchmark calls only the library's public layer functions from
 * its own files. Every generator seed is derived from the one --seed
 * argument, so the same seed gives the same inputs.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace poco::runtime
{
class ThreadPool;
}

namespace bench
{

/** Pool workers; the driver thread helps in joins, so at most
 *  kWorkers + 1 threads are runnable. */
constexpr unsigned kWorkers = 3;
constexpr unsigned kRunnableThreads = kWorkers + 1;

/** The seed the golden result hashes are recorded at. */
constexpr std::uint64_t kDefaultSeed = 1;

/** Parsed command line of one workload process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    /** Measured window: passes repeat until it has elapsed. */
    double seconds = 10.0;
    /** Chrome trace output; empty = untraced run. */
    std::string tracePath;
    std::string outPath;

    bool traced() const { return !tracePath.empty(); }
};

/** Independent 64-bit stream key for (seed, salt) — splitmix64. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t salt);

/** Monotonic wall clock in seconds. */
double wallNow();
/** CPU seconds consumed by every thread of this process. */
double cpuNow();
/** Peak resident set of this process in MiB. */
double peakRssMib();

/** Median of @p values (copy sorted); 0 for an empty set. */
double median(std::vector<double> values);
/** Nearest-rank percentile, @p q in [0, 1]; 0 for an empty set. */
double percentile(std::vector<double> values, double q);

/** FNV-1a 64 over raw value bits. */
class Fnv
{
  public:
    void
    u64(std::uint64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h_ ^= v & 0xffu;
            h_ *= 1099511628211ULL;
            v >>= 8;
        }
    }
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof bits == sizeof v);
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 1469598103934665603ULL;
};

std::string hex64(std::uint64_t v);

/**
 * Closed-loop measurement: run pass(0), pass(1), ... back to back.
 * After @p minPasses, another pass starts only while the mean pass so
 * far still fits in the @p seconds window, so a run ends near the
 * window rather than up to one pass past it.
 * @return The number of passes run.
 */
template <typename Pass>
std::size_t
repeatFor(double seconds, std::size_t minPasses, Pass&& pass)
{
    const double start = wallNow();
    std::size_t n = 0;
    while (n < minPasses)
        pass(n++);
    for (;;) {
        const double elapsed = wallNow() - start;
        if (elapsed + elapsed / static_cast<double>(n) > seconds)
            return n;
        pass(n++);
    }
}

/** One solver rung's share of the streaming apply time. */
struct RungStats
{
    std::uint64_t n = 0;
    double seconds = 0.0;
    double p50Ms = 0.0;
};

/** Rung order of the per-layer table (SolverTier Cached..Conservative). */
constexpr const char* kRungNames[] = {"cached", "repair", "warm",
                                      "lp",     "hungarian", "greedy",
                                      "conservative"};
constexpr std::size_t kRungs = sizeof kRungNames / sizeof *kRungNames;

/**
 * Every per-layer metric of a traced run. A workload fills the
 * layers it exercises; the rest stay 0 (the layer did no work), so
 * every traced run reports the same metric names.
 */
struct LayerMetrics
{
    double scenGenerateS = 0.0;
    double fleetConstructS = 0.0;
    double clusterConstructS = 0.0;
    double logGenerateS = 0.0;

    double profileS = 0.0;
    std::uint64_t profileCalls = 0;
    double fitS = 0.0;
    std::uint64_t fitCalls = 0;
    double matrixS = 0.0;
    std::uint64_t matrixCells = 0;

    double placeS = 0.0;
    std::uint64_t placeCalls = 0;
    std::uint64_t placeAttempts = 0;
    std::uint64_t tierLp = 0;
    std::uint64_t tierHungarian = 0;
    std::uint64_t tierGreedy = 0;
    std::uint64_t tierConservative = 0;

    double simS = 0.0;
    std::uint64_t simCalls = 0;
    std::uint64_t simMemoHits = 0;
    double hostUsPerSimS = 0.0;
    double simPomS = 0.0;
    double simHeraclesS = 0.0;

    double foldS = 0.0;
    std::uint64_t foldSamples = 0;
    std::uint64_t deltaPushes = 0;

    double applyS = 0.0;
    std::uint64_t events = 0;
    std::uint64_t noopEvents = 0;
    std::uint64_t resolves = 0;
    std::uint64_t heartbeatSuspected = 0;
    std::uint64_t heartbeatDeaths = 0;
    double eventP50Ms = 0.0;
    double eventP99Ms = 0.0;
    RungStats rungs[kRungs];

    std::uint64_t cellEvals = 0;
    double cellsPerEvent = 0.0;
    double cellBusyS = 0.0;
    double cellFrac = 0.0;
    double cellRedundantFrac = 0.0;

    double busyFrac = 0.0;
    double fidelity = 0.0;
    double overheadFrac = 0.0;
};

/** One row of the per-layer table (traced runs). */
struct LayerRow
{
    std::string layer;
    double busySeconds = 0.0;
    std::uint64_t calls = 0;
};

/**
 * Everything one workload process reports: metrics by name with
 * units, named correctness checks, the attempted/failed operation
 * counts, the semantic result hash and, on traced runs, the layer
 * table. Written as JSON by writeJson().
 */
class Report
{
  public:
    explicit Report(const Options& options) : options_(options) {}

    void metric(const std::string& name, double value,
                const std::string& unit);
    /** Record a named check; failures also print to stderr. */
    bool check(const std::string& name, bool ok,
               const std::string& detail = {});

    void setOperations(std::uint64_t attempted, std::uint64_t failed)
    {
        attempted_ = attempted;
        failed_ = failed;
    }
    void setSemanticHash(std::uint64_t hash) { hash_ = hash; }
    std::uint64_t semanticHash() const { return hash_; }
    void setLayers(std::vector<LayerRow> layers)
    {
        layers_ = std::move(layers);
    }
    /** Free-form note printed and stored (e.g. workload sizes). */
    void note(const std::string& key, const std::string& value);

    bool correct() const;
    const Options& options() const { return options_; }

    /** Human-readable metric table on stdout. */
    void print() const;
    bool writeJson(const std::string& path) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    struct Check
    {
        std::string name;
        bool ok;
        std::string detail;
    };

    Options options_;
    std::vector<Metric> metrics_;
    std::vector<Check> checks_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::vector<LayerRow> layers_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t hash_ = 0;
};

/**
 * At the default seed, check the workload's semantic hash against the
 * golden value recorded in report.cpp: the result must match it bit
 * for bit.
 */
void checkGolden(Report& report);

/** Emit every LayerMetrics field under its per-layer metric name. */
void emitLayerMetrics(Report& report, const LayerMetrics& m);

/** Row of layer @p name in @p table (zero busy time and calls when
 *  absent). */
LayerRow findLayer(const std::vector<LayerRow>& table, const char* name);

/** Workload entry points (one process runs one of them). */
void runFleetDay(const Options& options, poco::runtime::ThreadPool& pool,
                 Report& report);
void runPaperSeeds(const Options& options,
                   poco::runtime::ThreadPool& pool, Report& report);
void runCtrlStorm(const Options& options,
                  poco::runtime::ThreadPool& pool, Report& report);
void runFleetStream(const Options& options,
                    poco::runtime::ThreadPool& pool, Report& report);

} // namespace bench
