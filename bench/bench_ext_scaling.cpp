/**
 * @file
 * Extension — cluster scaling study.
 *
 * Grows the cluster beyond the paper's 4x4 (using the extended
 * application set and replicated servers) and measures: placement
 * quality of POColo's LP/Hungarian against random assignment, and
 * solver wall-clock cost, as the matrix grows.
 *
 * The LP runs without and with a pool up to 48x48. Only 48x48 is past
 * the solver's fan-out cutoff, so that row is the one where the pooled
 * pivot elimination actually runs; the bench exits 1 if the pooled
 * assignment differs from the serial one at any size.
 */

#include <chrono>
#include <cmath>
#include <cstdio>

#include "cluster/performance_matrix.hpp"
#include "cluster/placement.hpp"
#include "common.hpp"
#include "math/hungarian.hpp"
#include "math/simplex.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

/** Wall-clock microseconds of one invocation. */
template <typename F>
double
timedUs(F&& fn)
{
    const auto begin = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(end - begin)
        .count();
}

} // namespace

int
main()
{
    bench::banner(
        "Ext: scaling",
        "placement quality and solver cost vs cluster size",
        "LP/Hungarian stay exact as the cluster grows; random "
        "placement leaves 8-15% of matrix value on the table");

    const wl::AppSet apps = wl::extendedAppSet();
    model::Profiler profiler;
    model::UtilityFitter fitter;

    // Fit the 6 LC and 6 BE archetypes once.
    std::vector<cluster::LcServerModel> lc_models;
    for (const auto& lc : apps.lc)
        lc_models.push_back({lc.name(),
                             fitter.fit(profiler.profileLc(lc)),
                             lc.peakLoad(), lc.provisionedPower()});
    std::vector<cluster::BeCandidateModel> be_models;
    for (const auto& be : apps.be)
        be_models.push_back({be.name(),
                             fitter.fit(profiler.profileBe(be))});

    runtime::ThreadPool pool;
    math::LpOptions lp_serial;
    math::LpOptions lp_parallel;
    lp_parallel.pool = &pool;

    TextTable table({"servers", "BE apps", "hungarian value",
                     "random value", "random gap", "hungarian (us)",
                     "lp (us)", "lp par (us)"});
    for (int scale : {1, 2, 4, 8, 16}) {
        // Replicate the archetypes: server i runs archetype i mod 6.
        std::vector<cluster::LcServerModel> servers;
        std::vector<cluster::BeCandidateModel> candidates;
        const int n_servers = 6 * scale;
        for (int i = 0; i < n_servers; ++i) {
            auto server = lc_models[static_cast<std::size_t>(
                i % static_cast<int>(lc_models.size()))];
            server.name += "-" + std::to_string(i);
            servers.push_back(std::move(server));
        }
        for (int i = 0; i < n_servers; ++i) {
            auto be = be_models[static_cast<std::size_t>(
                i % static_cast<int>(be_models.size()))];
            be.name += "-" + std::to_string(i);
            candidates.push_back(std::move(be));
        }

        const auto matrix = cluster::buildPerformanceMatrix(
            candidates, servers, apps.spec);

        std::vector<int> hungarian;
        const double t_hungarian = timedUs([&] {
            hungarian = math::solveAssignmentMax(matrix.view());
        });
        double t_lp = 0.0;
        double t_lp_par = 0.0;
        if (n_servers <= 48) {
            // The dense-tableau LP is exact but O(n^2) variables;
            // keep it to the sizes it is meant for.
            std::vector<int> lp_serial_assign;
            t_lp = timedUs([&] {
                lp_serial_assign =
                    math::solveAssignmentLp(matrix.view(), lp_serial);
            });
            std::vector<int> lp_par_assign;
            t_lp_par = timedUs([&] {
                lp_par_assign =
                    math::solveAssignmentLp(matrix.view(), lp_parallel);
            });
            // The determinism contract: the pooled solver must return
            // the serial solver's assignment field-exact. A mismatch
            // is a solver bug, not a tolerance issue -- fail loudly so
            // perf smoke runs catch it.
            if (lp_par_assign != lp_serial_assign) {
                std::fprintf(stderr,
                             "ERROR: parallel LP assignment disagrees "
                             "with serial at n_servers=%d\n",
                             n_servers);
                return 1;
            }
            // Ties between replicated archetypes mean LP and
            // Hungarian may pick different optimal assignments, but
            // the optimal value must agree.
            const double v_lp =
                math::assignmentValue(matrix.view(), lp_serial_assign);
            const double v_hung =
                math::assignmentValue(matrix.view(), hungarian);
            if (std::abs(v_lp - v_hung) >
                1e-6 * std::max(1.0, std::abs(v_hung))) {
                std::fprintf(stderr,
                             "ERROR: LP value %.9f disagrees with "
                             "Hungarian %.9f at n_servers=%d\n",
                             v_lp, v_hung, n_servers);
                return 1;
            }
        }

        // Expected random value: mean over a handful of draws.
        Rng rng(99);
        double random_value = 0.0;
        constexpr int kDraws = 32;
        for (int d = 0; d < kDraws; ++d) {
            const auto perm = rng.permutation(n_servers);
            std::vector<int> assignment(perm.begin(),
                                        perm.begin() + n_servers);
            random_value +=
                math::assignmentValue(matrix.view(), assignment);
        }
        random_value /= kDraws;

        const double best =
            math::assignmentValue(matrix.view(), hungarian);
        table.addRow({std::to_string(n_servers),
                      std::to_string(n_servers), fmt(best, 2),
                      fmt(random_value, 2),
                      fmtPercent(1.0 - random_value / best),
                      fmt(t_hungarian, 0),
                      t_lp > 0 ? fmt(t_lp, 0) : "-",
                      t_lp_par > 0 ? fmt(t_lp_par, 0) : "-"});
    }
    std::printf("%s", table.render().c_str());
    return 0;
}
