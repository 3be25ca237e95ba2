/**
 * @file
 * Determinism of the parallel evaluation pipeline: Rng::split stream
 * derivation, profiler grids, matrix cells, pooled scenario runs, and
 * a full ClusterEvaluator policy evaluation must all be bit-identical
 * between the serial path and any thread count. Runs under the
 * tier-tsan label alongside the pool tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster_evaluator.hpp"
#include "cluster/performance_matrix.hpp"
#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "server/primary_controller.hpp"
#include "server/server_manager.hpp"
#include "util/rng.hpp"
#include "wl/load_trace.hpp"
#include "wl/registry.hpp"

namespace poco
{
namespace
{

TEST(RngSplit, DoesNotAdvanceTheParent)
{
    Rng parent(123);
    Rng reference(123);
    (void)parent.split(std::uint64_t{0});
    (void)parent.split(std::uint64_t{7});
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(parent.nextU64(), reference.nextU64());
}

TEST(RngSplit, IsStableForAGivenStreamIndex)
{
    const Rng parent(99);
    Rng a = parent.split(std::uint64_t{5});
    Rng b = parent.split(std::uint64_t{5});
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(RngSplit, StreamsAreIndependent)
{
    // Different stream indices (and different parents) must yield
    // decorrelated sequences: no collisions across the first draws.
    const Rng parent(2024);
    Rng s0 = parent.split(std::uint64_t{0});
    Rng s1 = parent.split(std::uint64_t{1});
    Rng s2 = parent.split(std::uint64_t{1000000});
    int collisions = 0;
    for (int i = 0; i < 64; ++i) {
        const auto a = s0.nextU64();
        const auto b = s1.nextU64();
        const auto c = s2.nextU64();
        collisions += (a == b) + (a == c) + (b == c);
    }
    EXPECT_EQ(collisions, 0);

    const Rng other(2025);
    Rng o0 = other.split(std::uint64_t{0});
    Rng p0 = parent.split(std::uint64_t{0});
    EXPECT_NE(o0.nextU64(), p0.nextU64());
}

TEST(RngSplit, OrderIndependentAcrossIndices)
{
    // split(i) depends only on (state, i): taking the streams in any
    // order — or skipping some — never changes the others. This is
    // the property parallel task scheduling relies on.
    const Rng parent(7);
    Rng forward2 = parent.split(std::uint64_t{2});
    (void)parent.split(std::uint64_t{0});
    (void)parent.split(std::uint64_t{1});
    Rng again2 = parent.split(std::uint64_t{2});
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(forward2.nextU64(), again2.nextU64());
}

void
expectSamplesIdentical(const std::vector<model::ProfileSample>& a,
                       const std::vector<model::ProfileSample>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].r, b[i].r) << "sample " << i;
        EXPECT_EQ(a[i].perf, b[i].perf) << "sample " << i;
        EXPECT_EQ(a[i].power, b[i].power) << "sample " << i;
    }
}

TEST(ProfilerDeterminism, SerialAndPooledGridsMatch)
{
    const auto set = wl::defaultAppSet();
    const model::Profiler profiler;
    runtime::ThreadPool pool(4);

    expectSamplesIdentical(profiler.profileLc(set.lc[0], nullptr),
                           profiler.profileLc(set.lc[0], &pool));
    expectSamplesIdentical(profiler.profileBe(set.be[0], nullptr),
                           profiler.profileBe(set.be[0], &pool));
}

TEST(MatrixDeterminism, SerialAndPooledCellsMatch)
{
    const auto set = wl::defaultAppSet();
    const model::Profiler profiler;
    runtime::ThreadPool pool(4);

    const model::UtilityFitter fitter;
    std::vector<cluster::LcServerModel> lc;
    for (const auto& app : set.lc) {
        const auto samples = profiler.profileLc(app, &pool);
        lc.push_back({app.name(), fitter.fit(samples),
                      app.peakLoad(), app.provisionedPower()});
    }
    std::vector<cluster::BeCandidateModel> be;
    for (const auto& app : set.be) {
        const auto samples = profiler.profileBe(app, &pool);
        be.push_back({app.name(), fitter.fit(samples)});
    }

    const auto serial =
        buildPerformanceMatrix(be, lc, set.spec, {}, nullptr);
    const auto pooled =
        buildPerformanceMatrix(be, lc, set.spec, {}, &pool);
    ASSERT_EQ(serial.rows(), pooled.rows());
    ASSERT_EQ(serial.cols(), pooled.cols());
    for (std::size_t i = 0; i < serial.rows(); ++i)
        for (std::size_t j = 0; j < serial.cols(); ++j)
            EXPECT_EQ(serial(i, j), pooled(i, j))
                << "cell (" << i << ", " << j << ")";
}

void
expectRunsIdentical(const server::ServerRunResult& a,
                    const server::ServerRunResult& b,
                    const std::string& label)
{
    EXPECT_EQ(a.stats.elapsed, b.stats.elapsed) << label;
    EXPECT_EQ(a.stats.energyJoules, b.stats.energyJoules) << label;
    EXPECT_EQ(a.stats.beWorkDone, b.stats.beWorkDone) << label;
    EXPECT_EQ(a.stats.sloViolationTime, b.stats.sloViolationTime)
        << label;
    EXPECT_EQ(a.stats.cappedTime, b.stats.cappedTime) << label;
    EXPECT_EQ(a.stats.maxPower, b.stats.maxPower) << label;
    EXPECT_EQ(a.powerUtilization, b.powerUtilization) << label;
    EXPECT_EQ(a.averageSlack, b.averageSlack) << label;
    EXPECT_EQ(a.slackShortfallFraction, b.slackShortfallFraction)
        << label;
}

TEST(ScenarioDeterminism, PooledRunsMatchIndividualRuns)
{
    const auto set = wl::defaultAppSet();
    runtime::ThreadPool pool(4);
    const auto trace =
        wl::LoadTrace::stepped({0.3, 0.7}, 30 * kSecond);
    const SimTime duration = 3 * 30 * kSecond;
    const auto run = [&](std::size_t i) {
        return server::runServerScenario(
            set.lc[i], &set.be[i], set.lc[i].provisionedPower(),
            std::make_unique<server::HeraclesController>(100 + i),
            trace, duration);
    };

    const auto pooled = runtime::parallelMap(&pool, set.lc.size(), run);

    ASSERT_EQ(pooled.size(), set.lc.size());
    for (std::size_t i = 0; i < set.lc.size(); ++i)
        expectRunsIdentical(pooled[i], run(i),
                            "server " + set.lc[i].name());
}

/**
 * The headline guarantee: a full 4-server cluster evaluation is
 * bit-identical between --threads 1 and --threads 8. The config is
 * shrunk (two load points, short dwell) to keep the test quick while
 * still covering profiling, fitting, matrix construction, placement,
 * and both the deterministic (POColo) and seed-replicated (Random)
 * policies.
 */
class EvaluatorDeterminism : public ::testing::Test
{
  protected:
    static FleetConfig smallConfig(int threads)
    {
        FleetConfig config;
        config.loadPoints = {0.3, 0.7};
        config.dwell = 30 * kSecond;
        config.heraclesReplicas = 2;
        config.seed = 11;
        config.threads = threads;
        return config;
    }

    static void
    expectOutcomesIdentical(const cluster::ClusterOutcome& a,
                            const cluster::ClusterOutcome& b)
    {
        ASSERT_EQ(a.servers.size(), b.servers.size());
        for (std::size_t i = 0; i < a.servers.size(); ++i) {
            EXPECT_EQ(a.servers[i].lcName, b.servers[i].lcName);
            EXPECT_EQ(a.servers[i].beName, b.servers[i].beName);
            expectRunsIdentical(a.servers[i].run, b.servers[i].run,
                                "server " + a.servers[i].lcName);
        }
    }
};

TEST_F(EvaluatorDeterminism, SerialAndEightThreadsBitIdentical)
{
    const auto set = wl::defaultAppSet();
    const cluster::ClusterEvaluator serial(set, smallConfig(1));
    const cluster::ClusterEvaluator parallel(set, smallConfig(8));

    EXPECT_EQ(serial.pool(), nullptr);
    ASSERT_NE(parallel.pool(), nullptr);
    EXPECT_EQ(parallel.pool()->threadCount(), 8u);

    // Fitted models and the matrix agree exactly.
    ASSERT_EQ(serial.lcModels().size(), parallel.lcModels().size());
    for (std::size_t j = 0; j < serial.lcModels().size(); ++j) {
        EXPECT_EQ(serial.lcModels()[j].peakLoad,
                  parallel.lcModels()[j].peakLoad);
        EXPECT_EQ(serial.lcModels()[j].powerCap,
                  parallel.lcModels()[j].powerCap);
    }
    ASSERT_EQ(serial.matrix().rows(), parallel.matrix().rows());
    ASSERT_EQ(serial.matrix().cols(), parallel.matrix().cols());
    for (std::size_t i = 0; i < serial.matrix().rows(); ++i)
        for (std::size_t j = 0; j < serial.matrix().cols(); ++j)
            EXPECT_EQ(serial.matrix()(i, j), parallel.matrix()(i, j))
                << "matrix cell (" << i << ", " << j << ")";

    // Placements agree, and so does every per-server simulation —
    // POColo exercises the deterministic POM manager path, Random the
    // seed-variant replica averaging.
    EXPECT_EQ(serial.placeBe(cluster::PlacementKind::Lp),
              parallel.placeBe(cluster::PlacementKind::Lp));
    expectOutcomesIdentical(
        serial.runPolicy(cluster::Policy::PoColo),
        parallel.runPolicy(cluster::Policy::PoColo));
    expectOutcomesIdentical(
        serial.runPolicy(cluster::Policy::Random),
        parallel.runPolicy(cluster::Policy::Random));
}

} // namespace
} // namespace poco
