/**
 * @file
 * Extension — end-to-end diurnal day.
 *
 * Runs the full 4-server cluster over one simulated day with the
 * diurnal load shape of Fig. 1 (plus jitter) instead of the uniform
 * stepped schedule, and compares the three policies on realized BE
 * work, energy, and SLO safety. Complements Figs. 12-13, which
 * average over a uniform load distribution.
 */

#include <cstdio>
#include <memory>

#include "common.hpp"
#include "server/server_manager.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

struct DayResult
{
    double beWork = 0.0;
    double energyJ = 0.0;
    double worstSloViolation = 0.0;
    double meanPowerUtil = 0.0;
};

DayResult
runDay(bench::Context& ctx, bool pom_manager, bool smart_placement)
{
    // POColo pairing from the paper (and our Fig. 14); random
    // placement is the marginal average over co-runners.
    const std::vector<std::pair<std::string, std::string>> pocolo = {
        {"img-dnn", "lstm"},
        {"sphinx", "graph"},
        {"xapian", "pbzip2"},
        {"tpcc", "rnn"}};
    const std::vector<std::string> be_names = {"lstm", "rnn", "graph",
                                               "pbzip2"};

    const SimTime day = 24 * kHour;
    server::ServerManagerConfig config;
    config.warmup = 10 * kMinute;

    DayResult result;
    int runs = 0;
    std::size_t server_idx = 0;
    for (const auto& [lc_name, be_name] : pocolo) {
        const wl::LcApp& lc = ctx.apps.lcByName(lc_name);
        const auto trace = wl::LoadTrace::diurnalJittered(
            day, 0.1, 0.9,
            0.1 * static_cast<double>(server_idx), 0.05,
            5 * kMinute, 1234 + server_idx);
        ++server_idx;

        const std::vector<std::string> partners =
            smart_placement ? std::vector<std::string>{be_name}
                            : be_names;
        for (const auto& partner : partners) {
            std::unique_ptr<server::PrimaryController> controller;
            if (pom_manager)
                controller =
                    std::make_unique<server::PomController>(
                        ctx.lcModel(lc_name));
            else
                controller =
                    std::make_unique<server::HeraclesController>(
                        0x77 + server_idx);
            const auto run = server::runServerScenario(
                lc, &ctx.apps.beByName(partner),
                lc.provisionedPower(), std::move(controller), trace,
                day, config);
            result.beWork +=
                run.stats.beWorkDone / partners.size();
            result.energyJ += run.stats.energyJoules.value() /
                              static_cast<double>(partners.size());
            result.worstSloViolation =
                std::max(result.worstSloViolation,
                         run.stats.sloViolationFraction());
            result.meanPowerUtil += run.powerUtilization /
                                    partners.size();
            ++runs;
        }
    }
    result.meanPowerUtil /= 4.0;
    return result;
}

} // namespace

int
main()
{
    bench::banner(
        "Ext: diurnal day",
        "policies over one simulated day (diurnal + jitter)",
        "the Fig 12/13 ordering must also hold on a realistic day, "
        "not just on the uniform load sweep");

    auto& ctx = bench::context();
    const DayResult random = runDay(ctx, false, false);
    const DayResult pom = runDay(ctx, true, false);
    const DayResult pocolo = runDay(ctx, true, true);

    TextTable table({"policy", "BE work (units)", "vs Random",
                     "energy (MJ)", "mean power util",
                     "worst SLO viol"});
    auto add = [&](const char* name, const DayResult& r) {
        table.addRow({name, fmt(r.beWork, 0),
                      fmtPercent(r.beWork / random.beWork - 1.0),
                      fmt(r.energyJ / 1e6, 1),
                      fmt(r.meanPowerUtil, 3),
                      fmt(r.worstSloViolation, 4)});
    };
    add("Random", random);
    add("POM", pom);
    add("POColo", pocolo);
    std::printf("%s", table.render().c_str());
    std::printf("\nenergy per unit BE work: Random %.0f J | POColo "
                "%.0f J (%+.1f%%)\n",
                random.energyJ / random.beWork,
                pocolo.energyJ / pocolo.beWork,
                100.0 * (pocolo.energyJ / pocolo.beWork /
                             (random.energyJ / random.beWork) -
                         1.0));
    return 0;
}
