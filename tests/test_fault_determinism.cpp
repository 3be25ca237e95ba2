/**
 * @file
 * Determinism of faulted evaluation under concurrency: a faulted
 * cluster evaluation must be bit-identical for 1 worker and N
 * workers, and faulted server scenarios run on a pool must match
 * their serial runs exactly. Runs under the tier-tsan label so the
 * ThreadSanitizer build exercises the fault paths too.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cluster/cluster_evaluator.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "server/server_manager.hpp"
#include "wl/registry.hpp"

namespace poco
{
namespace
{

fault::FaultPlan
crashPlan(int servers)
{
    fault::FaultPlanConfig config;
    config.horizon = 5 * kMinute;
    config.servers = servers;
    config.crashRate = 0.6;
    config.seed = 11;
    return fault::FaultPlan::generate(config);
}

TEST(FaultDeterminism, ClusterEvaluationMatchesAcrossWorkerCounts)
{
    const wl::AppSet set = wl::defaultAppSet();
    FleetConfig config;
    config.dwell = 30 * kSecond;
    config.loadPoints = {0.3, 0.7};

    FleetConfig serial_config = config;
    serial_config.threads = 1;
    const cluster::ClusterEvaluator serial(set, serial_config);

    FleetConfig pooled_config = config;
    pooled_config.threads = 4;
    const cluster::ClusterEvaluator pooled(set, pooled_config);

    const auto plan = crashPlan(static_cast<int>(set.lc.size()));
    ASSERT_TRUE(plan.enabled());
    const auto a =
        serial.runWithServerFaults(plan, cluster::ManagerKind::Pom);
    const auto b =
        pooled.runWithServerFaults(plan, cluster::ManagerKind::Pom);

    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t e = 0; e < a.epochs.size(); ++e) {
        EXPECT_EQ(a.epochs[e].start, b.epochs[e].start);
        EXPECT_EQ(a.epochs[e].end, b.epochs[e].end);
        EXPECT_EQ(a.epochs[e].down, b.epochs[e].down);
        EXPECT_EQ(a.epochs[e].placement.value,
                  b.epochs[e].placement.value);
        EXPECT_EQ(a.epochs[e].placement.tier,
                  b.epochs[e].placement.tier);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(a.epochs[e].beThroughput, b.epochs[e].beThroughput);
    }
    EXPECT_EQ(a.replacements, b.replacements);
    EXPECT_EQ(a.solverAttempts, b.solverAttempts);
    EXPECT_EQ(a.timeWeightedThroughput, b.timeWeightedThroughput);
}

TEST(FaultDeterminism, PooledFaultedScenariosMatchSerial)
{
    const wl::AppSet set = wl::defaultAppSet();
    fault::FaultPlanConfig fc;
    fc.horizon = 3 * kMinute;
    fc.servers = 1;
    fc.sensorStuckRate = 2.0;
    fc.sensorDropoutRate = 1.0;
    fc.actuatorStuckRate = 2.0;
    fc.loadSpikeRate = 1.0;
    fc.seed = 23;
    const auto plan = fault::FaultPlan::generate(fc);
    ASSERT_TRUE(plan.enabled());

    // Scenario i runs set.lc[i] against a rotated BE under the shared
    // plan; every run owns its server and manager, so the pooled map
    // must reproduce the serial one bit for bit.
    const auto run = [&](std::size_t i) {
        return server::runServerScenario(
            set.lc[i], &set.be[i % set.be.size()],
            set.lc[i].provisionedPower(),
            std::make_unique<server::HeraclesController>(17 + i),
            wl::LoadTrace::stepped({0.2, 0.9}, 90 * kSecond),
            3 * kMinute, {}, &plan);
    };
    const auto serial =
        runtime::parallelMap(nullptr, set.lc.size(), run);
    runtime::ThreadPool pool(4);
    const auto pooled = runtime::parallelMap(&pool, set.lc.size(), run);

    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].stats.energyJoules,
                  pooled[i].stats.energyJoules);
        EXPECT_EQ(serial[i].stats.beWorkDone,
                  pooled[i].stats.beWorkDone);
        EXPECT_EQ(serial[i].faults.degradedTicks,
                  pooled[i].faults.degradedTicks);
        EXPECT_EQ(serial[i].faults.evictions,
                  pooled[i].faults.evictions);
        EXPECT_EQ(serial[i].faults.capOvershootJoules,
                  pooled[i].faults.capOvershootJoules);
    }
}

} // namespace
} // namespace poco
