/**
 * @file
 * Anatomy of a power-capped server: a minute-by-minute view of the
 * management loops reacting to a load spike.
 *
 * A sphinx primary starts at 20% load with PageRank harvesting the
 * spare; at t=4 min the load jumps to 70% and at t=8 min it falls
 * back. The example prints the telemetry so you can watch the POM
 * controller re-size the primary along its min-power expansion path
 * and the 100 ms throttler keep the socket under its cap.
 *
 * Build & run:  ./build/examples/power_capped_server
 */

#include <cstdio>
#include <memory>

#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "server/server_manager.hpp"
#include "util/table.hpp"
#include "wl/registry.hpp"

using namespace poco;

int
main()
{
    const wl::AppSet apps = wl::defaultAppSet();
    const wl::LcApp& sphinx = apps.lcByName("sphinx");
    const wl::BeApp& pagerank = apps.beByName("graph");
    const Watts cap = sphinx.provisionedPower();

    const model::Profiler profiler;
    const model::UtilityFitter fitter;
    const auto sphinx_model =
        fitter.fit(profiler.profileLc(sphinx));

    // Load schedule: 20% -> 70% -> 20%, four minutes each.
    const auto trace = wl::LoadTrace::stepped({0.2, 0.7, 0.2},
                                              4 * kMinute);

    server::ColocatedServer server(sphinx, &pagerank, cap);
    server::ServerManager manager(
        server,
        std::make_unique<server::PomController>(sphinx_model),
        trace);

    std::printf("sphinx + pagerank on a %.0f W server; load steps "
                "20%% -> 70%% -> 20%%\n\n",
                cap.value());
    TextTable table({"t", "load%", "primary", "secondary",
                     "power (W)", "slack", "BE thr"});
    for (int minute = 0; minute <= 12; ++minute) {
        manager.runUntil(minute * kMinute);
        server.advanceTo(manager.now());
        table.addRow(
            {std::to_string(minute) + "m",
             fmt(100.0 * server.load() / sphinx.peakLoad(), 0),
             server.primaryAlloc().toString(),
             server.beAlloc().toString(), fmt(server.power(), 1),
             fmt(server.slack99(), 2),
             fmt(server.beThroughput(), 3)});
    }
    std::printf("%s", table.render().c_str());

    const auto& stats = server.stats();
    std::printf("\ntotals: %.1f W average (%.0f%% of cap), %.2f kJ, "
                "BE work %.1f units, SLO violations %.2f%% of time, "
                "throttled %.1f%% of time\n",
                stats.averagePower().value(),
                100.0 * stats.averagePower() / cap,
                stats.energyJoules.value() / 1000.0,
                stats.beWorkDone,
                100.0 * stats.sloViolationFraction(),
                100.0 * stats.cappedFraction());
    return 0;
}
