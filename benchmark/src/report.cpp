#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "common.hpp"
#include "trace.hpp"

namespace bench
{

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt +
                      0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string
hex64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
Report::metric(const std::string& name, double value,
               const std::string& unit)
{
    metrics_.push_back({name, value, unit});
}

bool
Report::check(const std::string& name, bool ok,
              const std::string& detail)
{
    checks_.push_back({name, ok, detail});
    if (!ok)
        std::fprintf(stderr, "CHECK FAILED [%s] %s: %s\n",
                     options_.workload.c_str(), name.c_str(),
                     detail.c_str());
    return ok;
}

void
Report::note(const std::string& key, const std::string& value)
{
    notes_.emplace_back(key, value);
}

bool
Report::correct() const
{
    if (checks_.empty() || attempted_ == 0)
        return false;
    for (const Check& c : checks_)
        if (!c.ok)
            return false;
    for (const Metric& m : metrics_)
        if (!std::isfinite(m.value))
            return false;
    return true;
}

void
Report::print() const
{
    std::printf("workload %s  seed %llu  %s\n", options_.workload.c_str(),
                static_cast<unsigned long long>(options_.seed),
                options_.traced() ? "traced" : "untraced");
    for (const auto& [key, value] : notes_)
        std::printf("  %-28s %s\n", key.c_str(), value.c_str());
    for (const Metric& m : metrics_)
        std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!layers_.empty()) {
        double total = 0.0;
        for (const LayerRow& row : layers_)
            total += row.busySeconds;
        std::printf("  layer table (self time):\n");
        for (const LayerRow& row : layers_)
            std::printf("    %-24s %10.4f s %6.1f%% %10llu calls\n",
                        row.layer.c_str(), row.busySeconds,
                        total > 0.0 ? 100.0 * row.busySeconds / total
                                    : 0.0,
                        static_cast<unsigned long long>(row.calls));
    }
    std::printf("  operations attempted %llu failed %llu  hash %s\n",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                hex64(hash_).c_str());
    for (const Check& c : checks_)
        std::printf("  check %-32s %s\n", c.name.c_str(),
                    c.ok ? "ok" : "FAILED");
    std::printf("  result: %s\n", correct() ? "correct" : "INCORRECT");
}

namespace
{

std::string
quoted(const std::string& text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

bool
Report::writeJson(const std::string& path) const
{
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    std::fprintf(file, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
                 quoted(options_.workload).c_str(),
                 static_cast<unsigned long long>(options_.seed));
    std::fprintf(file,
                 "  \"seconds\": %s,\n  \"threads\": %u,\n"
                 "  \"traced\": %s,\n",
                 number(options_.seconds).c_str(), kRunnableThreads,
                 options_.traced() ? "true" : "false");
    std::fprintf(file,
                 "  \"correct\": %s,\n  \"attempted\": %llu,\n"
                 "  \"failed\": %llu,\n  \"semantic_hash\": \"%s\",\n",
                 correct() ? "true" : "false",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_),
                 hex64(hash_).c_str());

    std::fprintf(file, "  \"notes\": {");
    for (std::size_t i = 0; i < notes_.size(); ++i)
        std::fprintf(file, "%s\n    %s: %s", i ? "," : "",
                     quoted(notes_[i].first).c_str(),
                     quoted(notes_[i].second).c_str());
    std::fprintf(file, "\n  },\n  \"checks\": [");
    for (std::size_t i = 0; i < checks_.size(); ++i)
        std::fprintf(file,
                     "%s\n    {\"name\": %s, \"ok\": %s, \"detail\": %s}",
                     i ? "," : "", quoted(checks_[i].name).c_str(),
                     checks_[i].ok ? "true" : "false",
                     quoted(checks_[i].detail).c_str());
    std::fprintf(file, "\n  ],\n  \"metrics\": {");
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        std::fprintf(file, "%s\n    %s: {\"value\": %s, \"unit\": %s}",
                     i ? "," : "", quoted(metrics_[i].name).c_str(),
                     number(metrics_[i].value).c_str(),
                     quoted(metrics_[i].unit).c_str());
    double total = 0.0;
    for (const LayerRow& row : layers_)
        total += row.busySeconds;
    std::fprintf(file, "\n  },\n  \"layers\": [");
    for (std::size_t i = 0; i < layers_.size(); ++i)
        std::fprintf(file,
                     "%s\n    {\"layer\": %s, \"busy_s\": %s, "
                     "\"share\": %s, \"calls\": %llu}",
                     i ? "," : "", quoted(layers_[i].layer).c_str(),
                     number(layers_[i].busySeconds).c_str(),
                     number(total > 0.0 ? layers_[i].busySeconds / total
                                        : 0.0)
                         .c_str(),
                     static_cast<unsigned long long>(layers_[i].calls));
    std::fprintf(file, "\n  ]\n}\n");
    return std::fclose(file) == 0;
}

LayerRow
findLayer(const std::vector<LayerRow>& table, const char* name)
{
    for (const LayerRow& row : table)
        if (row.layer == name)
            return row;
    return {name, 0.0, 0};
}

void
emitLayerMetrics(Report& report, const LayerMetrics& m)
{
    const auto count = [&report](const std::string& name,
                                 std::uint64_t v) {
        report.metric(name, static_cast<double>(v), "count");
    };
    report.metric("scen.generate_s", m.scenGenerateS, "s");
    report.metric("fleet.construct_s", m.fleetConstructS, "s");
    report.metric("cluster.construct_s", m.clusterConstructS, "s");
    report.metric("ctrl.log_generate_s", m.logGenerateS, "s");

    report.metric("model.profile_s", m.profileS, "s");
    count("model.profile_calls", m.profileCalls);
    report.metric("model.fit_s", m.fitS, "s");
    count("model.fit_calls", m.fitCalls);
    report.metric("cluster.matrix_s", m.matrixS, "s");
    count("cluster.matrix_cells", m.matrixCells);

    report.metric("cluster.place_s", m.placeS, "s");
    count("cluster.place_calls", m.placeCalls);
    count("cluster.place_attempts", m.placeAttempts);
    count("cluster.tier_lp", m.tierLp);
    count("cluster.tier_hungarian", m.tierHungarian);
    count("cluster.tier_greedy", m.tierGreedy);
    count("cluster.tier_conservative", m.tierConservative);

    report.metric("server.sim_s", m.simS, "s");
    count("server.sim_calls", m.simCalls);
    count("server.sim_memo_hits", m.simMemoHits);
    report.metric("server.host_us_per_sim_s", m.hostUsPerSimS, "us/s");
    report.metric("server.sim_pom_s", m.simPomS, "s");
    report.metric("server.sim_heracles_s", m.simHeraclesS, "s");

    report.metric("sim.fold_s", m.foldS, "s");
    count("sim.fold_samples", m.foldSamples);
    count("sim.delta_pushes", m.deltaPushes);

    report.metric("ctrl.apply_s", m.applyS, "s");
    count("ctrl.events", m.events);
    count("ctrl.noop_events", m.noopEvents);
    count("ctrl.resolves", m.resolves);
    count("ctrl.heartbeat_suspected", m.heartbeatSuspected);
    count("ctrl.heartbeat_deaths", m.heartbeatDeaths);
    report.metric("ctrl.event_p50_ms", m.eventP50Ms, "ms");
    report.metric("ctrl.event_p99_ms", m.eventP99Ms, "ms");
    for (std::size_t r = 0; r < kRungs; ++r) {
        const std::string base = std::string("ctrl.rung_") + kRungNames[r];
        count(base + "_n", m.rungs[r].n);
        report.metric(base + "_s", m.rungs[r].seconds, "s");
        report.metric(base + "_p50_ms", m.rungs[r].p50Ms, "ms");
        report.metric(base + "_frac",
                      m.applyS > 0.0 ? m.rungs[r].seconds / m.applyS : 0.0,
                      "fraction");
    }

    count("ctrl.cell_evals", m.cellEvals);
    report.metric("ctrl.cells_per_event", m.cellsPerEvent, "count");
    report.metric("ctrl.cell_busy_s", m.cellBusyS, "s");
    report.metric("ctrl.cell_frac", m.cellFrac, "fraction");
    report.metric("ctrl.cell_redundant_frac", m.cellRedundantFrac,
                  "fraction");

    // Each stage's share of the layer table's busy time; the shares sum
    // to 1 on every workload, whichever stages it exercises.
    struct Stage
    {
        const char* metric;
        std::vector<const char*> layers;
    };
    const Stage stages[] = {
        {"setup.share",
         {"scen.generate", "fleet.construct", "cluster.construct",
          "ctrl.log_generate", "ctrl.construct"}},
        {"model.share", {"model.profile", "model.fit", "cluster.matrix"}},
        {"cluster.place_share", {"cluster.place"}},
        {"server.sim_share",
         {"server.sim", "server.sim_heracles", "server.sim_pom"}},
        {"sim.fold_share", {"sim.fold"}},
        {"ctrl.apply_share", {"ctrl.apply", "ctrl.finish"}},
    };
    const std::vector<LayerRow> table = trace::layerTable();
    double total = 0.0;
    for (const LayerRow& row : table)
        total += row.busySeconds;
    for (const Stage& stage : stages) {
        double busy = 0.0;
        for (const char* layer : stage.layers)
            busy += findLayer(table, layer).busySeconds;
        report.metric(stage.metric, total > 0.0 ? busy / total : 0.0,
                      "fraction");
    }

    report.metric("runtime.busy_frac", m.busyFrac, "fraction");
    report.metric("trace.fidelity", m.fidelity, "bool");
    report.metric("trace.overhead_frac", m.overheadFrac, "fraction");
}

void
checkGolden(Report& report)
{
    // Semantic result hashes at --seed 1, recorded from this
    // benchmark's first run. A change that moves one of these changed
    // what the program computes, not only how fast.
    struct Golden
    {
        const char* workload;
        std::uint64_t hash;
    };
    static constexpr Golden kGolden[] = {
        {"fleet-day", 0x23571f12a4fffe7bULL},
        {"paper-seeds", 0x7791df5a79057e87ULL},
        {"ctrl-storm", 0x584601164e3f74e7ULL},
        {"fleet-stream", 0x623cec73dd140c86ULL},
    };
    if (report.options().seed != kDefaultSeed)
        return;
    std::uint64_t golden = 0;
    for (const Golden& g : kGolden)
        if (report.options().workload == g.workload)
            golden = g.hash;
    report.check("golden-hash", golden == report.semanticHash(),
                 "expected " + hex64(golden) + " got " +
                     hex64(report.semanticHash()));
}

} // namespace bench
