/**
 * @file
 * pocolo_cli — command-line driver for the Pocolo library.
 *
 * Subcommands:
 *   spec                         print the server platform (Table I)
 *   apps                         list the calibrated applications
 *   profile <lc|be> <name>       dump profile samples as CSV
 *   fit <lc|be> <name>           fit and print the utility model
 *   curve <lc-name> <load%>      indifference curve at a load
 *   matrix                       model-driven performance matrix
 *   place [lp|hungarian|exhaustive|random|greedy]
 *                                placement under a solver
 *   policies                     run Random/POM/POColo end to end
 *   tco                          amortized monthly TCO comparison
 *   scen [clusters] [regions]    generate a seeded fleet scenario
 *                                and print its summary + fingerprint
 *
 * Output is plain text (aligned tables) on stdout; `profile` emits
 * CSV so it can feed external plotting.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_evaluator.hpp"
#include "model/fitter.hpp"
#include "model/indifference.hpp"
#include "model/model_store.hpp"
#include "model/profiler.hpp"
#include "runtime/thread_pool.hpp"
#include "scen/scenario.hpp"
#include "server/server_manager.hpp"
#include "tco/tco_model.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"
#include "wl/registry.hpp"

using namespace poco;

namespace
{

/**
 * The largest --threads accepted. Results are bit-identical for every
 * worker count, so more workers than any host has cores buy nothing,
 * and a huge count only risks the OS refusing threads.
 */
constexpr int kMaxThreads = 1024;

/**
 * The longest simulate run, in minutes: one day. It keeps the run to
 * seconds of wall time and inside the telemetry recorder's window
 * (2^20 samples at 100 ms, about 1747 minutes), so the printed series
 * starts at t = 0.
 */
constexpr int kMaxSimulateMinutes = 1440;

/**
 * The most clusters scen generates: 20x the paper's largest
 * 5,000-cluster study. A cluster costs about 1.4 KiB, so the bound
 * keeps a run near 140 MiB.
 */
constexpr int kMaxScenClusters = 100000;

/** Global options parsed before the subcommand. */
struct Options
{
    /** 1 = serial, 0 = hardware concurrency, N = N workers. */
    int threads = 0;
    /** Seed salt for every stochastic stream. */
    std::uint64_t seed = 0;

    /** Worker count after resolving 0 to the hardware. */
    unsigned
    effectiveThreads() const
    {
        return threads == 0
                   ? runtime::ThreadPool::hardwareThreads()
                   : static_cast<unsigned>(threads);
    }

    FleetConfig
    fleetConfig() const
    {
        return FleetConfig{}
            .withThreads(threads)
            .withSeed(seed);
    }

    model::ProfilerConfig
    profilerConfig() const
    {
        model::ProfilerConfig config;
        // Same salt mixing as ClusterEvaluator, so standalone
        // profile/fit output matches the evaluator's models.
        config.seed ^= seed * 0x9e3779b97f4a7c15ULL;
        return config;
    }
};

/**
 * The pool standalone (non-evaluator) commands run on, chosen by
 * runtime::selectPool from --threads.
 */
struct CliPool
{
    explicit CliPool(const Options& options)
        : pool(runtime::selectPool(nullptr, options.threads, owned))
    {}

    std::unique_ptr<runtime::ThreadPool> owned;
    runtime::ThreadPool* pool;
};

int
usage()
{
    std::printf(
        "usage: pocolo_cli [--threads N] [--seed S] <command> [args]\n"
        "\n"
        "global options:\n"
        "  --threads N   worker threads, at most %d (1 = serial;\n"
        "                default: hardware concurrency); results\n"
        "                are bit-identical for every value\n"
        "  --seed S      salt for every stochastic stream\n"
        "\n"
        "commands:\n"
        "  spec                       server platform (Table I)\n"
        "  apps                       calibrated applications\n"
        "  profile <lc|be> <name>     profile samples as CSV\n"
        "  fit <lc|be> <name>         fitted Cobb-Douglas model\n"
        "  curve <lc-name> <load%%>    indifference curve\n"
        "  matrix                     performance matrix\n"
        "  place [solver]             placement (lp, hungarian,\n"
        "                             exhaustive, random, greedy)\n"
        "  policies                   Random/POM/POColo comparison\n"
        "  tco                        monthly TCO comparison\n"
        "  fit-all <file>             fit all apps, save the model\n"
        "                             store (historical knowledge)\n"
        "  models <file>              list a saved model store\n"
        "  simulate <lc> <be> <load%%|trace.csv> <minutes>\n"
        "                             run a managed colocation for\n"
        "                             0 < minutes <= %d and print\n"
        "                             telemetry as CSV\n"
        "  scen [clusters] [regions]  generate a seeded fleet\n"
        "                             scenario of 1 <= clusters <= %d\n"
        "                             (default 100) and regions >= 1\n"
        "                             (default 4); summary +\n"
        "                             fingerprint\n",
        kMaxThreads, kMaxSimulateMinutes, kMaxScenClusters);
    return 2;
}

int
cmdSpec()
{
    const sim::ServerSpec spec = sim::xeonE5_2650();
    TextTable t({"property", "value"});
    t.addRow({"name", spec.name});
    t.addRow({"cores", std::to_string(spec.cores)});
    t.addRow({"llc ways", std::to_string(spec.llcWays)});
    t.addRow({"llc size (MB)", fmt(spec.llcMegabytes, 0)});
    t.addRow({"freq range (GHz)",
              fmt(spec.freqMin.value(), 1) + " - " +
                  fmt(spec.freqMax.value(), 1)});
    t.addRow({"idle power (W)", fmt(spec.idlePower.value(), 0)});
    t.addRow({"nominal active power (W)",
              fmt(spec.nominalActivePower.value(), 0)});
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdApps(const wl::AppSet& apps)
{
    TextTable t({"class", "name", "peak load", "p99 SLO (s)",
                 "provisioned power (W)"});
    for (const auto& lc : apps.lc)
        t.addRow({"LC", lc.name(), fmt(lc.peakLoad().value(), 0),
                  fmt(lc.slo99(), 4),
                  fmt(lc.provisionedPower().value(), 1)});
    for (const auto& be : apps.be)
        t.addRow({"BE", be.name(), "-", "-", "-"});
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdProfile(const wl::AppSet& apps, const Options& options,
           const std::string& cls, const std::string& name)
{
    const model::Profiler profiler(options.profilerConfig());
    CliPool cli_pool(options);
    std::vector<model::ProfileSample> samples;
    if (cls == "lc")
        samples = profiler.profileLc(apps.lcByName(name),
                                     cli_pool.pool);
    else if (cls == "be")
        samples = profiler.profileBe(apps.beByName(name),
                                     cli_pool.pool);
    else
        return usage();
    std::printf("cores,ways,perf,power_w\n");
    for (const auto& s : samples)
        std::printf("%.0f,%.0f,%.6g,%.4f\n", s.r[0], s.r[1], s.perf,
                    s.power);
    return 0;
}

int
cmdFit(const wl::AppSet& apps, const Options& options,
       const std::string& cls, const std::string& name)
{
    const model::Profiler profiler(options.profilerConfig());
    CliPool cli_pool(options);
    const model::UtilityFitter fitter;
    model::CobbDouglasUtility m;
    if (cls == "lc")
        m = fitter.fit(profiler.profileLc(apps.lcByName(name),
                                          cli_pool.pool));
    else if (cls == "be")
        m = fitter.fit(profiler.profileBe(apps.beByName(name),
                                          cli_pool.pool));
    else
        return usage();

    std::printf("model: %s\n", m.toString().c_str());
    std::printf("fit:   R2(perf)=%.3f R2(power)=%.3f\n", m.perfR2,
                m.powerR2);
    const auto d = m.directPreference();
    const auto i = m.indirectPreference();
    std::printf("direct preference (cores:ways):   %.2f:%.2f\n",
                d[0], d[1]);
    std::printf("indirect preference (cores:ways): %.2f:%.2f\n",
                i[0], i[1]);
    return 0;
}

int
cmdCurve(const wl::AppSet& apps, const std::string& name,
         double load_pct)
{
    const auto& lc = apps.lcByName(name);
    const auto curve = model::isoLoadCurve(lc, load_pct / 100.0);
    const auto best = model::minPowerPoint(lc, load_pct / 100.0);
    TextTable t({"cores", "ways", "server power (W)", "min-power"});
    for (const auto& p : curve)
        t.addRow({std::to_string(p.cores), std::to_string(p.ways),
                  fmt(p.power, 1),
                  (best && p.cores == best->cores &&
                   p.ways == best->ways)
                      ? "*"
                      : ""});
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdMatrix(const wl::AppSet& apps, const Options& options)
{
    const cluster::ClusterEvaluator evaluator(
        apps, options.fleetConfig());
    const auto& m = evaluator.matrix();
    std::vector<std::string> header = {"BE \\ LC"};
    header.insert(header.end(), m.lcNames.begin(), m.lcNames.end());
    TextTable t(header);
    for (std::size_t i = 0; i < m.beNames.size(); ++i) {
        std::vector<std::string> row = {m.beNames[i]};
        for (std::size_t j = 0; j < m.cols(); ++j)
            row.push_back(fmt(m(i, j), 3));
        t.addRow(std::move(row));
    }
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdPlace(const wl::AppSet& apps, const Options& options,
         const std::string& solver)
{
    cluster::PlacementKind kind = cluster::PlacementKind::Lp;
    if (solver == "hungarian")
        kind = cluster::PlacementKind::Hungarian;
    else if (solver == "exhaustive")
        kind = cluster::PlacementKind::Exhaustive;
    else if (solver == "random")
        kind = cluster::PlacementKind::Random;
    else if (solver == "greedy")
        kind = cluster::PlacementKind::Greedy;
    else if (solver != "lp")
        poco::fatal("unknown placement algorithm: " + solver);

    const cluster::ClusterEvaluator evaluator(
        apps, options.fleetConfig());
    const auto assignment = evaluator.placeBe(kind);
    const auto& m = evaluator.matrix();
    TextTable t({"BE app", "LC server", "estimated thr"});
    for (std::size_t i = 0; i < m.beNames.size(); ++i) {
        const auto j = static_cast<std::size_t>(assignment[i]);
        t.addRow({m.beNames[i], m.lcNames[j], fmt(m(i, j), 3)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("total estimated throughput: %.3f (%s)\n",
                cluster::placementValue(m, assignment),
                cluster::placementKindName(kind));
    return 0;
}

int
cmdPolicies(const wl::AppSet& apps, const Options& options)
{
    const cluster::ClusterEvaluator evaluator(
        apps, options.fleetConfig());
    TextTable t({"policy", "mean BE thr", "power util",
                 "max SLO viol", "energy (MJ)"});
    double base = 0.0;
    for (auto policy :
         {cluster::Policy::Random, cluster::Policy::Pom,
          cluster::Policy::PoColo}) {
        const auto outcome = evaluator.runPolicy(policy);
        if (policy == cluster::Policy::Random)
            base = outcome.meanBeThroughput();
        t.addRow({cluster::policyName(policy),
                  fmt(outcome.meanBeThroughput(), 3) + " (" +
                      fmtPercent(outcome.meanBeThroughput() / base -
                                 1.0) +
                      ")",
                  fmt(outcome.meanPowerUtilization(), 3),
                  fmt(outcome.maxSloViolationFraction(), 4),
                  fmt(outcome.totalEnergyJoules() / 1e6, 2)});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdTco(const wl::AppSet& apps, const Options& options)
{
    const cluster::ClusterEvaluator evaluator(
        apps, options.fleetConfig());
    Watts provisioned;
    for (const auto& lc : apps.lc)
        provisioned += lc.provisionedPower();
    provisioned /= static_cast<double>(apps.lc.size());

    std::vector<tco::PolicyProfile> profiles;
    for (auto policy :
         {cluster::Policy::PoColo, cluster::Policy::Pom,
          cluster::Policy::Random}) {
        const auto outcome = evaluator.runPolicy(policy);
        tco::PolicyProfile p;
        p.name = cluster::policyName(policy);
        p.throughputPerServer = 0.5 + outcome.meanBeThroughput();
        p.provisionedPowerPerServer = provisioned;
        p.averagePowerPerServer =
            outcome.meanPowerUtilization() * provisioned;
        profiles.push_back(p);
    }
    const tco::TcoModel model;
    const auto costs = model.compare(profiles);
    TextTable t({"policy", "servers", "total $M/mo", "vs first"});
    for (const auto& c : costs)
        t.addRow({c.policy, fmt(c.serversNeeded, 0),
                  fmt(c.total() / 1e6, 3),
                  fmtPercent(c.total() / costs.front().total() -
                             1.0)});
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdFitAll(const wl::AppSet& apps, const Options& options,
          const std::string& path)
{
    const model::Profiler profiler(options.profilerConfig());
    CliPool cli_pool(options);
    const model::UtilityFitter fitter;
    model::ModelStore store;
    for (const auto& lc : apps.lc)
        store.put(lc.name(),
                  fitter.fit(profiler.profileLc(lc, cli_pool.pool)));
    for (const auto& be : apps.be)
        store.put(be.name(),
                  fitter.fit(profiler.profileBe(be, cli_pool.pool)));
    store.saveFile(path);
    std::printf("saved %zu fitted models to %s\n", store.size(),
                path.c_str());
    return 0;
}

int
cmdModels(const std::string& path)
{
    model::ModelStore store;
    store.loadFile(path);
    TextTable t({"name", "k", "R2 perf", "R2 power",
                 "indirect pref"});
    for (const auto& [name, m] : store.all()) {
        std::string pref;
        for (double p : m.indirectPreference())
            pref += (pref.empty() ? "" : ":") + fmt(p, 2);
        t.addRow({name, std::to_string(m.numResources()),
                  fmt(m.perfR2, 3), fmt(m.powerR2, 3), pref});
    }
    std::printf("%s", t.render().c_str());
    return 0;
}

int
cmdSimulate(const wl::AppSet& apps, const Options& options,
            const std::string& lc_name, const std::string& be_name,
            const std::string& load_arg, double minutes)
{
    if (minutes <= 0.0 || minutes > kMaxSimulateMinutes)
        poco::fatal("simulate minutes must be in (0, " +
                    std::to_string(kMaxSimulateMinutes) + "]");
    const wl::LcApp& lc = apps.lcByName(lc_name);
    const wl::BeApp& be = apps.beByName(be_name);

    wl::LoadTrace trace = wl::LoadTrace::constant(0.5);
    if (load_arg.size() > 4 &&
        load_arg.substr(load_arg.size() - 4) == ".csv")
        trace = wl::LoadTrace::fromCsvFile(load_arg, kMinute);
    else
        trace = wl::LoadTrace::constant(
            parseDouble(load_arg, "load percentage") / 100.0);

    const model::Profiler profiler(options.profilerConfig());
    CliPool cli_pool(options);
    const model::UtilityFitter fitter;
    const auto fitted =
        fitter.fit(profiler.profileLc(lc, cli_pool.pool));

    server::ColocatedServer server(lc, &be, lc.provisionedPower());
    server::ServerManagerConfig config;
    config.keepTelemetry = true; // the table below prints the series
    server::ServerManager manager(
        server, std::make_unique<server::PomController>(fitted),
        trace, config);
    manager.runUntil(fromSeconds(minutes * 60.0));
    server.advanceTo(manager.now());

    std::printf("t_s,load_rps,p99_s,primary_cores,primary_ways,"
                "be_cores,be_ways,be_freq,be_duty,be_thr,power_w\n");
    for (const auto& s : manager.telemetry().all()) {
        // Down-sample to one row per second to keep output sane.
        if (s.when % kSecond != 0)
            continue;
        std::printf("%.0f,%.1f,%.6f,%d,%d,%d,%d,%.1f,%.2f,%.4f,"
                    "%.2f\n",
                    toSeconds(s.when), s.lcLoad.value(),
                    s.lcLatencyP99,
                    s.lcAlloc.cores, s.lcAlloc.ways, s.beAlloc.cores,
                    s.beAlloc.ways, s.beAlloc.freq.value(),
                    s.beAlloc.dutyCycle, s.beThroughput.value(),
                    s.power.value());
    }
    return 0;
}

int
cmdScen(const Options& options, int clusters, int regions)
{
    if (clusters < 1 || clusters > kMaxScenClusters)
        poco::fatal("scen clusters must be in [1, " +
                    std::to_string(kMaxScenClusters) + "]");
    if (regions < 1)
        poco::fatal("scen regions must be at least 1");
    const scen::ScenarioSpec spec =
        scen::ScenarioSpec{}
            .withClusters(static_cast<std::size_t>(clusters))
            .withRegions(static_cast<std::size_t>(regions))
            .withPlatformZipf(1.1)
            .withFlashCrowds(2, 0.5, 1 * kHour)
            .withBeArrivals(4.0)
            .withFaultStorms(2, 10 * kMinute, 0.25)
            .withSeed(options.seed);
    CliPool cli_pool(options);
    const scen::Scenario scenario =
        scen::Scenario::generate(spec, cli_pool.pool);

    std::vector<std::size_t> platform_counts(
        scenario.platforms().size(), 0);
    double load_min = 1.0, load_max = 0.0, load_sum = 0.0;
    for (const scen::ClusterScenario& cluster : scenario.clusters())
        ++platform_counts[cluster.platform];
    for (const double load : scenario.epochClusterLoads()) {
        load_min = std::min(load_min, load);
        load_max = std::max(load_max, load);
        load_sum += load;
    }
    load_sum /= static_cast<double>(
        scenario.epochClusterLoads().size());

    TextTable t({"property", "value"});
    t.addRow({"clusters", std::to_string(scenario.clusterCount())});
    t.addRow({"servers", std::to_string(scenario.servers().size())});
    t.addRow({"regions", std::to_string(spec.regions)});
    t.addRow({"epochs", std::to_string(spec.epochs)});
    for (std::size_t p = 0; p < platform_counts.size(); ++p)
        t.addRow({"platform " + scenario.platforms()[p].name,
                  std::to_string(platform_counts[p])});
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.3f / %.3f / %.3f",
                  load_min, load_sum, load_max);
    t.addRow({"load min/mean/max", buffer});
    t.addRow({"control events",
              std::to_string(scenario.beArrivals().size())});
    t.addRow({"fault windows",
              std::to_string(scenario.faultStorm().windows().size())});
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(
                      scenario.fingerprint()));
    t.addRow({"fingerprint", buffer});
    std::printf("%s", t.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    int argi = 1;
    try {
        while (argi < argc && argv[argi][0] == '-') {
            const std::string flag = argv[argi];
            if (flag == "--threads" && argi + 1 < argc) {
                options.threads =
                    parseInt(argv[++argi], "--threads");
                if (options.threads < 0)
                    return usage();
                if (options.threads > kMaxThreads)
                    poco::fatal("--threads must be at most " +
                                std::to_string(kMaxThreads));
            } else if (flag == "--seed" && argi + 1 < argc) {
                options.seed = parseU64(argv[++argi], "--seed");
            } else {
                return usage();
            }
            ++argi;
        }
    } catch (const poco::FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return usage();
    }
    if (argi >= argc)
        return usage();
    const std::string cmd = argv[argi];
    std::vector<std::string> args(argv + argi + 1, argv + argc);
    const std::size_t n = args.size();

    // Run header on stderr so CSV-emitting commands stay parseable.
    std::fprintf(stderr,
                 "pocolo_cli: threads=%u%s (hardware %u) seed=%llu\n",
                 options.effectiveThreads(),
                 options.threads == 1 ? " (serial)" : "",
                 runtime::ThreadPool::hardwareThreads(),
                 static_cast<unsigned long long>(options.seed));

    try {
        const wl::AppSet apps = wl::defaultAppSet();
        if (cmd == "spec")
            return cmdSpec();
        if (cmd == "apps")
            return cmdApps(apps);
        if (cmd == "profile" && n == 2)
            return cmdProfile(apps, options, args[0], args[1]);
        if (cmd == "fit" && n == 2)
            return cmdFit(apps, options, args[0], args[1]);
        if (cmd == "curve" && n == 2)
            return cmdCurve(apps, args[0],
                            parseDouble(args[1], "load fraction"));
        if (cmd == "matrix")
            return cmdMatrix(apps, options);
        if (cmd == "place")
            return cmdPlace(apps, options, n >= 1 ? args[0] : "lp");
        if (cmd == "policies")
            return cmdPolicies(apps, options);
        if (cmd == "tco")
            return cmdTco(apps, options);
        if (cmd == "fit-all" && n == 1)
            return cmdFitAll(apps, options, args[0]);
        if (cmd == "models" && n == 1)
            return cmdModels(args[0]);
        if (cmd == "simulate" && n == 4)
            return cmdSimulate(apps, options, args[0], args[1],
                               args[2],
                               parseDouble(args[3], "minutes"));
        if (cmd == "scen" && n <= 2)
            return cmdScen(
                options, n >= 1 ? parseInt(args[0], "clusters") : 100,
                n >= 2 ? parseInt(args[1], "regions") : 4);
    } catch (const poco::FatalError& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    } catch (const std::exception& error) {
        // Any stray library exception must still fail with a clear
        // diagnostic (parse errors arrive as FatalError above).
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return usage();
}
