/**
 * @file
 * Tests for the demand-to-allocation bridges, indifference curves,
 * and the Edgeworth-box analysis (Figs. 5-6).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "model/demand.hpp"
#include "model/edgeworth.hpp"
#include "model/fitter.hpp"
#include "model/indifference.hpp"
#include "model/profiler.hpp"
#include "util/check.hpp"
#include "wl/registry.hpp"

namespace poco::model
{
namespace
{

class AnalysisTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        set_ = new wl::AppSet(wl::defaultAppSet());
        Profiler profiler;
        UtilityFitter fitter;
        sphinx_model_ = new CobbDouglasUtility(
            fitter.fit(profiler.profileLc(set_->lcByName("sphinx"))));
        graph_model_ = new CobbDouglasUtility(
            fitter.fit(profiler.profileBe(set_->beByName("graph"))));
    }

    static void
    TearDownTestSuite()
    {
        delete sphinx_model_;
        delete graph_model_;
        delete set_;
        sphinx_model_ = graph_model_ = nullptr;
        set_ = nullptr;
    }

    static wl::AppSet* set_;
    static CobbDouglasUtility* sphinx_model_;
    static CobbDouglasUtility* graph_model_;
};

wl::AppSet* AnalysisTest::set_ = nullptr;
CobbDouglasUtility* AnalysisTest::sphinx_model_ = nullptr;
CobbDouglasUtility* AnalysisTest::graph_model_ = nullptr;

TEST_F(AnalysisTest, MinPowerAllocationMeetsTarget)
{
    const auto& m = *sphinx_model_;
    const double target =
        0.5 * set_->lcByName("sphinx").peakLoad().value();
    const auto plan = minPowerAllocationFor(m, target, set_->spec);
    ASSERT_TRUE(plan.has_value());
    EXPECT_GE(plan->modeledPerf, target);
    // Optimality up to the colocation tie-break: the chosen cell is
    // within 0.2% of the cheapest feasible cell, and no feasible cell
    // within that band holds fewer cores.
    double min_power = 1e18;
    for (int c = 1; c <= set_->spec.cores; ++c)
        for (int w = 1; w <= set_->spec.llcWays; ++w) {
            const std::vector<double> r = {static_cast<double>(c),
                                           static_cast<double>(w)};
            if (m.performance(r) >= target)
                min_power = std::min(min_power, m.powerAt(r).value());
        }
    EXPECT_LE(plan->modeledPower.value(), min_power * 1.002 + 1e-9);
    for (int c = 1; c < plan->alloc.cores; ++c)
        for (int w = 1; w <= set_->spec.llcWays; ++w) {
            const std::vector<double> r = {static_cast<double>(c),
                                           static_cast<double>(w)};
            if (m.performance(r) >= target) {
                EXPECT_GT(m.powerAt(r).value(), min_power * 1.002)
                    << c << "c/" << w << "w should have won the "
                    << "tie-break";
            }
        }

    // With a zero tie band the result is the exact minimum.
    const auto strict =
        minPowerAllocationFor(m, target, set_->spec, 1.0, 0.0);
    ASSERT_TRUE(strict.has_value());
    EXPECT_NEAR(strict->modeledPower.value(), min_power, 1e-9);
}

TEST_F(AnalysisTest, MinPowerAllocationImpossibleTarget)
{
    const auto plan =
        minPowerAllocationFor(*sphinx_model_, 1e12, set_->spec);
    EXPECT_FALSE(plan.has_value());
    EXPECT_THROW(
        minPowerAllocationFor(*sphinx_model_, -1.0, set_->spec),
        poco::FatalError);
}

TEST_F(AnalysisTest, MinPowerAllocationHeadroomGrowsAllocation)
{
    const double target =
        0.4 * set_->lcByName("sphinx").peakLoad().value();
    const auto tight =
        minPowerAllocationFor(*sphinx_model_, target, set_->spec,
                              1.0);
    const auto padded =
        minPowerAllocationFor(*sphinx_model_, target, set_->spec,
                              1.3);
    ASSERT_TRUE(tight && padded);
    EXPECT_GE(padded->modeledPower, tight->modeledPower);
}

/** Same engaged state, allocation and bitwise modeled values. */
::testing::AssertionResult
samePlan(const std::optional<AllocationPlan>& grid,
         const std::optional<AllocationPlan>& scalar)
{
    if (grid.has_value() != scalar.has_value())
        return ::testing::AssertionFailure()
               << "grid " << (grid ? "engaged" : "nullopt")
               << ", scalar " << (scalar ? "engaged" : "nullopt");
    if (!grid)
        return ::testing::AssertionSuccess();
    if (!(grid->alloc == scalar->alloc) ||
        grid->modeledPower.value() != scalar->modeledPower.value() ||
        grid->modeledPerf != scalar->modeledPerf)
        return ::testing::AssertionFailure()
               << "grid " << grid->alloc.toString() << " "
               << grid->modeledPower.value() << " W "
               << grid->modeledPerf << ", scalar "
               << scalar->alloc.toString() << " "
               << scalar->modeledPower.value() << " W "
               << scalar->modeledPerf;
    return ::testing::AssertionSuccess();
}

TEST_F(AnalysisTest, AllocationGridMatchesScalarScanBitwise)
{
    // POM decides through AllocationGrid::minPowerFor; the scalar
    // scan is its oracle. Sweep every calibrated LC fit over three
    // lattice shapes: the default spec, the scenario catalog's wider
    // rank-1 platform, and a spec whose way count changes the grid's
    // row stride.
    std::vector<CobbDouglasUtility> fits;
    Profiler profiler;
    UtilityFitter fitter;
    for (const auto& lc : set_->lc)
        fits.push_back(fitter.fit(profiler.profileLc(lc)));
    ASSERT_EQ(fits.size(), 4u);

    sim::ServerSpec gen1 = set_->spec;
    gen1.name = "xeon-gen1";
    gen1.cores = 14;
    gen1.freqMax = GHz{2.3};
    gen1.idlePower = Watts{52.5};
    gen1.nominalActivePower = Watts{150.0};
    sim::ServerSpec narrow = set_->spec;
    narrow.name = "xeon-11way";
    narrow.llcWays = 11;

    for (const sim::ServerSpec& spec : {set_->spec, gen1, narrow}) {
        for (const CobbDouglasUtility& fit : fits) {
            const AllocationGrid grid(fit, spec);
            // A log sweep from 0.1% to 150% of the full server, then
            // every cell's own performance, where `perf < want`
            // flips.
            const double full = grid.perfAt(spec.cores, spec.llcWays);
            std::vector<double> targets;
            constexpr int kSweep = 40;
            for (int k = 0; k < kSweep; ++k)
                targets.push_back(
                    full * 1e-3 *
                    std::pow(1500.0, static_cast<double>(k) /
                                         (kSweep - 1)));
            for (int c = 1; c <= spec.cores; ++c)
                for (int w = 1; w <= spec.llcWays; ++w)
                    targets.push_back(grid.perfAt(c, w));

            for (const double headroom : {1.0, 1.05})
                for (const double eps : {0.0, 0.002, 0.05})
                    for (const double target : targets)
                        ASSERT_TRUE(samePlan(
                            grid.minPowerFor(target, headroom, eps),
                            minPowerAllocationFor(fit, target, spec,
                                                  headroom, eps)))
                            << spec.name << " target " << target
                            << " headroom " << headroom << " eps "
                            << eps;
        }
    }
}

TEST_F(AnalysisTest, RoundedDemandIsFeasible)
{
    const auto plan =
        roundedDemand(*sphinx_model_, Watts{120.0}, set_->spec);
    EXPECT_GE(plan.alloc.cores, 1);
    EXPECT_LE(plan.alloc.cores, set_->spec.cores);
    EXPECT_GE(plan.alloc.ways, 1);
    EXPECT_LE(plan.alloc.ways, set_->spec.llcWays);
    EXPECT_GT(plan.modeledPerf, 0.0);
}

TEST_F(AnalysisTest, EstimateBePerformanceBehaviour)
{
    const auto& be = *graph_model_;
    // No spare -> nothing.
    EXPECT_DOUBLE_EQ(estimateBePerformance(be, Watts{}, 6, 10), 0.0);
    EXPECT_DOUBLE_EQ(estimateBePerformance(be, Watts{50.0}, 0, 10),
                     0.0);
    // More power or more resources never hurts.
    const double base = estimateBePerformance(be, Watts{40.0}, 6, 10);
    EXPECT_GT(base, 0.0);
    EXPECT_GE(estimateBePerformance(be, Watts{60.0}, 6, 10), base);
    EXPECT_GE(estimateBePerformance(be, Watts{40.0}, 8, 10), base);
    EXPECT_GE(estimateBePerformance(be, Watts{40.0}, 6, 14), base);
    EXPECT_THROW(estimateBePerformance(be, Watts{-1.0}, 6, 10),
                 poco::FatalError);
}

TEST_F(AnalysisTest, IsoLoadCurveShape)
{
    const auto& app = set_->lcByName("sphinx");
    const auto curve = isoLoadCurve(app, 0.4);
    ASSERT_FALSE(curve.empty());
    // Substitution: more cores need no more ways.
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GT(curve[i].cores, curve[i - 1].cores);
        EXPECT_LE(curve[i].ways, curve[i - 1].ways);
    }
    // Every point sustains the load.
    for (const auto& p : curve) {
        const sim::Allocation alloc{p.cores, p.ways,
                                    set_->spec.freqMax, 1.0};
        EXPECT_GE(app.capacity(alloc), 0.4 * app.peakLoad());
    }
    EXPECT_THROW(isoLoadCurve(app, 0.0), poco::FatalError);
    EXPECT_THROW(isoLoadCurve(app, 1.5), poco::FatalError);
}

TEST_F(AnalysisTest, HigherLoadCurvesDominate)
{
    const auto& app = set_->lcByName("sphinx");
    const auto low = isoLoadCurve(app, 0.2);
    const auto high = isoLoadCurve(app, 0.6);
    // At any shared core count, the higher load needs >= ways.
    for (const auto& lp : low)
        for (const auto& hp : high)
            if (lp.cores == hp.cores) {
                EXPECT_GE(hp.ways, lp.ways);
            }
    // And the feasible core range shrinks from below.
    EXPECT_GE(high.front().cores, low.front().cores);
}

TEST_F(AnalysisTest, MinPowerPointIsOnCurveAndCheapest)
{
    const auto& app = set_->lcByName("sphinx");
    const auto point = minPowerPoint(app, 0.4);
    ASSERT_TRUE(point.has_value());
    const auto curve = isoLoadCurve(app, 0.4);
    for (const auto& p : curve)
        EXPECT_GE(p.power, point->power - Watts{1e-9});
}

TEST_F(AnalysisTest, ModelExpansionPathMonotone)
{
    const auto path = modelExpansionPath(
        *sphinx_model_, {1.0, 2.0, 4.0, 8.0});
    ASSERT_EQ(path.size(), 4u);
    for (std::size_t i = 1; i < path.size(); ++i) {
        EXPECT_GT(path[i][0], path[i - 1][0]);
        EXPECT_GT(path[i][1], path[i - 1][1]);
    }
    // Along the expansion path the core:way ratio is constant
    // (alpha_j / p_j structure).
    const double ratio0 = path[0][0] / path[0][1];
    for (const auto& r : path)
        EXPECT_NEAR(r[0] / r[1], ratio0, 1e-9);
}

TEST_F(AnalysisTest, EdgeworthSweepComplementarity)
{
    const auto& app = set_->lcByName("sphinx");
    const Watts cap = app.provisionedPower();
    const auto sweep = edgeworthSweep(
        app, *graph_model_, {0.2, 0.4, 0.6, 0.8}, cap);
    ASSERT_EQ(sweep.size(), 4u);
    for (const auto& row : sweep) {
        // Box geometry: primary + spare = machine.
        EXPECT_EQ(row.primaryCores + row.spareCores,
                  set_->spec.cores);
        EXPECT_EQ(row.primaryWays + row.spareWays,
                  set_->spec.llcWays);
        EXPECT_GE(row.sparePower, Watts{});
        EXPECT_LE(row.primaryServerPower, cap + Watts{1e-9});
    }
    // As load rises, the spare shrinks. The BE estimate also trends
    // down but is not strictly monotone: the discrete min-power
    // point may take *all* LLC ways at some loads (cheap ways on
    // sphinx), zeroing the co-runner at that point only.
    double last_nonzero = sweep.front().beEstimatedPerf > 0.0
                              ? sweep.front().beEstimatedPerf
                              : 1e18;
    for (std::size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_LE(sweep[i].spareCores + sweep[i].spareWays,
                  sweep[i - 1].spareCores + sweep[i - 1].spareWays);
        if (sweep[i].beEstimatedPerf > 0.0) {
            EXPECT_LE(sweep[i].beEstimatedPerf,
                      last_nonzero + 1e-9);
        }
        if (sweep[i].beEstimatedPerf > 0.0)
            last_nonzero = sweep[i].beEstimatedPerf;
    }
    EXPECT_THROW(edgeworthSweep(app, *graph_model_, {0.5}, Watts{}),
                 poco::FatalError);
}

TEST_F(AnalysisTest, EdgeworthBeDemandWithinSpare)
{
    const auto& app = set_->lcByName("sphinx");
    const auto sweep = edgeworthSweep(app, *graph_model_, {0.3},
                                      app.provisionedPower());
    ASSERT_EQ(sweep.size(), 1u);
    const auto& row = sweep.front();
    ASSERT_EQ(row.beDemand.size(), 2u);
    EXPECT_LE(row.beDemand[0],
              static_cast<double>(row.spareCores) + 1e-9);
    EXPECT_LE(row.beDemand[1],
              static_cast<double>(row.spareWays) + 1e-9);
}

} // namespace
} // namespace poco::model
