/**
 * @file
 * pocolo_bench — the repository benchmark.
 *
 *   pocolo_bench --workload W [--seed S] [--seconds T]
 *                [--trace t.json] [--out r.json]
 *
 * One workload runs per process, so peak RSS is per workload. Each
 * process owns one ThreadPool of kWorkers
 * workers shared by every layer. The untraced run measures the
 * end-to-end metrics; --trace runs the separate traced run that
 * yields the per-layer metrics and a Chrome trace. The exit code is 1
 * when any correctness check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"
#include "runtime/thread_pool.hpp"
#include "trace.hpp"

namespace
{

int
usage(const char* message)
{
    std::fprintf(stderr,
                 "pocolo_bench: %s\n"
                 "usage: pocolo_bench --workload W [--seed S] "
                 "[--seconds T] [--trace t.json] [--out r.json]\n"
                 "workloads: fleet-day paper-seeds ctrl-storm "
                 "fleet-stream\n",
                 message);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::Options options;
    options.outPath = "pocolo_bench.json";
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0' || value[0] == '-')
                return usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' ||
                !(options.seconds > 0.0 && options.seconds <= 3600.0))
                return usage("--seconds takes a number in (0, 3600]");
        } else if (flag == "--trace") {
            options.tracePath = value;
        } else if (flag == "--out") {
            options.outPath = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (options.workload.empty())
        return usage("--workload is required");

    using Runner = void (*)(const bench::Options&,
                            poco::runtime::ThreadPool&, bench::Report&);
    Runner runner = nullptr;
    if (options.workload == "fleet-day")
        runner = bench::runFleetDay;
    else if (options.workload == "paper-seeds")
        runner = bench::runPaperSeeds;
    else if (options.workload == "ctrl-storm")
        runner = bench::runCtrlStorm;
    else if (options.workload == "fleet-stream")
        runner = bench::runFleetStream;
    else
        return usage(("unknown workload " + options.workload).c_str());

    bench::Report report(options);
    try {
        poco::runtime::ThreadPool pool(bench::kWorkers);
        if (options.traced())
            bench::trace::enable();
        runner(options, pool, report);
        if (options.traced()) {
            report.setLayers(bench::trace::layerTable());
            report.check("trace-written",
                         bench::trace::writeChrome(options.tracePath,
                                                   options.workload),
                         options.tracePath);
        }
    } catch (const std::exception& error) {
        report.check("no-exception", false, error.what());
    }
    report.print();
    if (!report.writeJson(options.outPath)) {
        std::fprintf(stderr, "pocolo_bench: cannot write %s\n",
                     options.outPath.c_str());
        return 1;
    }
    return report.correct() ? 0 : 1;
}
