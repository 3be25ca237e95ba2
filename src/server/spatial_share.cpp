#include "server/spatial_share.hpp"

#include <algorithm>

#include "model/demand.hpp"
#include "util/check.hpp"

namespace poco::server
{

namespace
{

/**
 * Best total throughput for two utilities on a fixed resource split,
 * sweeping the power split between them.
 */
double
bestTwoAppValue(const model::CobbDouglasUtility& a,
                const model::CobbDouglasUtility& b, int ca, int wa,
                int cb, int wb, Watts spare_power, double& thr_a,
                double& thr_b)
{
    thr_a = thr_b = 0.0;
    if ((ca < 1 || wa < 1) && (cb < 1 || wb < 1))
        return 0.0;
    if (ca < 1 || wa < 1) {
        thr_b = model::estimateBePerformance(b, spare_power, cb, wb);
        return thr_b;
    }
    if (cb < 1 || wb < 1) {
        thr_a = model::estimateBePerformance(a, spare_power, ca, wa);
        return thr_a;
    }

    // Unconstrained draw of each side at its full slice.
    const Watts draw_a =
        a.powerAt({static_cast<double>(ca),
                   static_cast<double>(wa)}) -
        a.pStatic();
    const Watts draw_b =
        b.powerAt({static_cast<double>(cb),
                   static_cast<double>(wb)}) -
        b.pStatic();
    if (draw_a + draw_b <= spare_power) {
        thr_a = a.performance({static_cast<double>(ca),
                               static_cast<double>(wa)});
        thr_b = b.performance({static_cast<double>(cb),
                               static_cast<double>(wb)});
        return thr_a + thr_b;
    }

    // Power is the binding constraint: sweep the split.
    double best = 0.0;
    for (double frac = 0.05; frac <= 0.951; frac += 0.05) {
        const Watts pa = frac * spare_power;
        const Watts pb = spare_power - pa;
        const double ta =
            model::estimateBePerformance(a, pa, ca, wa);
        const double tb =
            model::estimateBePerformance(b, pb, cb, wb);
        if (ta + tb > best) {
            best = ta + tb;
            thr_a = ta;
            thr_b = tb;
        }
    }
    return best;
}

} // namespace

SpatialPlan
planSpatialShare(
    const std::vector<const model::CobbDouglasUtility*>& utilities,
    int spare_cores, int spare_ways, Watts spare_power,
    const sim::ServerSpec& spec)
{
    POCO_REQUIRE(utilities.size() >= 2,
                 "spatial sharing needs at least two candidates");
    for (const auto* u : utilities)
        POCO_REQUIRE(u != nullptr && u->numResources() == 2,
                     "utilities must be (cores, ways) models");
    POCO_REQUIRE(spare_cores >= 0 && spare_ways >= 0,
                 "spare resources must be non-negative");
    POCO_REQUIRE(spare_power >= Watts{},
                 "spare power must be non-negative");

    SpatialPlan plan;
    plan.slices.assign(utilities.size(),
                       sim::Allocation{0, 0, spec.freqMax, 1.0});
    plan.estimatedThroughput.assign(utilities.size(), 0.0);

    if (utilities.size() == 2) {
        double best = -1.0;
        for (int ca = 0; ca <= spare_cores; ++ca) {
            for (int wa = 0; wa <= spare_ways; ++wa) {
                const int cb = spare_cores - ca;
                const int wb = spare_ways - wa;
                double ta = 0.0, tb = 0.0;
                const double total = bestTwoAppValue(
                    *utilities[0], *utilities[1], ca, wa, cb, wb,
                    spare_power, ta, tb);
                if (total > best) {
                    best = total;
                    plan.slices[0] = sim::Allocation{
                        ta > 0.0 ? ca : 0, ta > 0.0 ? wa : 0,
                        spec.freqMax, 1.0};
                    plan.slices[1] = sim::Allocation{
                        tb > 0.0 ? cb : 0, tb > 0.0 ? wb : 0,
                        spec.freqMax, 1.0};
                    plan.estimatedThroughput = {ta, tb};
                }
            }
        }
        plan.totalEstimatedThroughput = std::max(0.0, best);
        return plan;
    }

    // Three or more apps: peel the first app's slice greedily, then
    // recurse on the remainder. Not optimal in general but the
    // two-app case (the practical one) is exact.
    double best = -1.0;
    SpatialPlan best_plan = plan;
    for (int c0 = 0; c0 <= spare_cores; ++c0) {
        for (int w0 = 0; w0 <= spare_ways; ++w0) {
            for (double frac = 0.1; frac <= 0.91; frac += 0.2) {
                const Watts p0 = frac * spare_power;
                const double t0 =
                    (c0 >= 1 && w0 >= 1)
                        ? model::estimateBePerformance(
                              *utilities[0], p0, c0, w0)
                        : 0.0;
                const std::vector<const model::CobbDouglasUtility*>
                    rest(utilities.begin() + 1, utilities.end());
                const SpatialPlan sub = planSpatialShare(
                    rest, spare_cores - c0, spare_ways - w0,
                    spare_power - p0, spec);
                if (t0 + sub.totalEstimatedThroughput > best) {
                    best = t0 + sub.totalEstimatedThroughput;
                    best_plan.slices[0] = sim::Allocation{
                        t0 > 0.0 ? c0 : 0, t0 > 0.0 ? w0 : 0,
                        spec.freqMax, 1.0};
                    best_plan.estimatedThroughput[0] = t0;
                    for (std::size_t i = 0; i < sub.slices.size();
                         ++i) {
                        best_plan.slices[i + 1] = sub.slices[i];
                        best_plan.estimatedThroughput[i + 1] =
                            sub.estimatedThroughput[i];
                    }
                }
            }
        }
    }
    best_plan.totalEstimatedThroughput = std::max(0.0, best);
    return best_plan;
}

SpatialRunResult
runSpatialShare(const wl::LcApp& lc,
                const std::vector<const wl::BeApp*>& apps,
                const std::vector<sim::Allocation>& slices,
                Watts power_cap,
                std::unique_ptr<PrimaryController> controller,
                double load_fraction, SimTime duration,
                ServerManagerConfig config)
{
    POCO_REQUIRE(apps.size() == slices.size(),
                 "one slice per application required");
    POCO_REQUIRE(!apps.empty(), "need at least one application");
    POCO_REQUIRE(duration > config.warmup,
                 "duration must exceed the warm-up period");

    ColocatedServer server(lc, apps, power_cap);
    ServerManager manager(server, std::move(controller),
                          wl::LoadTrace::constant(load_fraction),
                          config);

    // Give the controller a moment to size the primary, then install
    // the slices (clipped installs would mask planning errors, so a
    // slice that no longer fits is an error).
    manager.runUntil(5 * kSecond);
    for (std::size_t i = 0; i < slices.size(); ++i)
        if (!slices[i].empty())
            server.setBeAllocAt(manager.now(), i, slices[i]);

    manager.runUntil(config.warmup);
    server.resetStats(manager.now());
    manager.runUntil(duration);
    server.advanceTo(manager.now());

    SpatialRunResult result;
    result.stats = server.stats();
    const double seconds = toSeconds(result.stats.elapsed);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double thr =
            seconds > 0.0 ? server.beWorkAt(i) / seconds : 0.0;
        result.throughput.push_back(thr);
        result.totalThroughput += thr;
    }
    return result;
}

} // namespace poco::server
