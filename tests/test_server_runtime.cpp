/**
 * @file
 * Tests for the colocated-server runtime and the BE throttler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "model/fitter.hpp"
#include "model/profiler.hpp"
#include "rollup_expect.hpp"
#include "server/be_throttler.hpp"
#include "server/colocated_server.hpp"
#include "server/server_manager.hpp"
#include "sim/telemetry_rollup.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "wl/registry.hpp"

namespace poco::server
{
namespace
{

class RuntimeTest : public ::testing::Test
{
  protected:
    wl::AppSet set_ = wl::defaultAppSet();
};

TEST_F(RuntimeTest, BootsWithPrimaryOwningMachine)
{
    const auto& lc = set_.lcByName("xapian");
    ColocatedServer server(lc, nullptr, lc.provisionedPower());
    EXPECT_EQ(server.primaryAlloc().cores, set_.spec.cores);
    EXPECT_EQ(server.primaryAlloc().ways, set_.spec.llcWays);
    EXPECT_TRUE(server.beAlloc().empty());
    EXPECT_DOUBLE_EQ(server.beThroughput().value(), 0.0);
    EXPECT_THROW(ColocatedServer(lc, nullptr, Watts{}),
                 poco::FatalError);
}

TEST_F(RuntimeTest, ObservablesMatchGroundTruth)
{
    const auto& lc = set_.lcByName("xapian");
    ColocatedServer server(lc, nullptr, lc.provisionedPower());
    server.setLoad(0, 0.5 * lc.peakLoad());
    const auto& alloc = server.primaryAlloc();
    EXPECT_EQ(server.latencyP99(),
              lc.latencyP99(0.5 * lc.peakLoad(), alloc));
    EXPECT_EQ(server.latencyP95(),
              lc.latencyP95(0.5 * lc.peakLoad(), alloc));
    EXPECT_EQ(server.slack99(), lc.slack99(0.5 * lc.peakLoad(), alloc));
    EXPECT_EQ(server.power().value(),
              lc.serverPower(0.5 * lc.peakLoad(), alloc).value());
}

/** A random DVFS step of @p spec. */
GHz
randomFreq(Rng& rng, const sim::ServerSpec& spec)
{
    return spec.clampFreq(
        spec.freqMin +
        static_cast<double>(rng.uniformInt(0, spec.freqSteps() - 1)) *
            spec.freqStep);
}

/** The observables, evaluated afresh through lc() and beAppAt(i). */
struct FreshObservables
{
    double p99 = 0.0;
    double slack99 = 0.0;
    double p95 = 0.0;
    Watts power;
    std::vector<Rps> throughput;
    Rps totalThroughput;
};

FreshObservables
evaluateFresh(const ColocatedServer& server)
{
    const wl::LcApp& lc = server.lc();
    const Rps load = server.load();
    const sim::Allocation& primary = server.primaryAlloc();
    FreshObservables fresh;
    fresh.p99 = lc.latencyP99(load, primary);
    fresh.slack99 = lc.slack99(load, primary);
    fresh.p95 = lc.latencyP95(load, primary);
    fresh.power = server.spec().idlePower + lc.power(load, primary);
    for (std::size_t i = 0; i < server.secondaryCount(); ++i) {
        const wl::BeApp* app = server.beAppAt(i);
        const sim::Allocation& alloc = server.beAllocAt(i);
        const bool running = app != nullptr && !alloc.empty();
        fresh.throughput.push_back(running ? app->throughput(alloc)
                                           : Rps{});
        if (running)
            fresh.power += app->power(alloc);
        fresh.totalThroughput += fresh.throughput.back();
    }
    return fresh;
}

/**
 * The server caches its observables in the refresh every setter
 * ends with. Drive it through random setter sequences and compare
 * every getter with a fresh evaluation after every step; the energy
 * and work integrals must equal running sums of those fresh values,
 * accumulated in the server's order, and the interval count and
 * worst p99 must cover exactly the intervals of positive length.
 */
void
checkCachedObservables(const wl::AppSet& set, std::size_t slots,
                       std::uint64_t seed)
{
    SCOPED_TRACE("slots " + std::to_string(slots) + " seed " +
                 std::to_string(seed));
    Rng rng(seed);
    const sim::ServerSpec& spec = set.spec;
    const wl::LcApp& lc =
        set.lc[static_cast<std::size_t>(rng.uniformInt(0, 3))];
    std::vector<const wl::BeApp*> apps(slots);
    for (auto& app : apps)
        app = &set.be[static_cast<std::size_t>(rng.uniformInt(0, 3))];
    ColocatedServer server(lc, apps, lc.provisionedPower());

    FreshObservables fresh = evaluateFresh(server);
    SimTime now = 0;
    Joules energy;
    double work = 0.0;
    std::uint64_t intervals = 0;
    double max_p99 = 0.0;
    for (int step = 0; step < 200; ++step) {
        // Until the next setter the server runs at the state the
        // previous step checked: integrate it the way the server
        // does, from the fresh values.
        const SimTime dt =
            rng.bernoulli(0.15)
                ? 0
                : static_cast<SimTime>(rng.uniformInt(1, 2000)) *
                      kMillisecond;
        if (dt > 0) {
            energy += fresh.power * simSeconds(dt);
            for (const Rps& thr : fresh.throughput)
                work += thr.value() * toSeconds(dt);
            ++intervals;
            max_p99 = std::max(max_p99, fresh.p99);
        }
        now += dt;

        const auto slot = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(slots) - 1));
        switch (rng.uniformInt(0, 3)) {
        case 0:
            server.setLoad(now, rng.uniform(0.0, 1.0) * lc.peakLoad());
            break;
        case 1:
            // Any size: growth clips the secondaries.
            server.setPrimaryAlloc(
                now, {rng.uniformInt(1, spec.cores),
                      rng.uniformInt(1, spec.llcWays),
                      randomFreq(rng, spec), 1.0});
            break;
        case 2: {
            int free_cores = spec.cores - server.primaryAlloc().cores;
            int free_ways = spec.llcWays - server.primaryAlloc().ways;
            for (std::size_t i = 0; i < slots; ++i) {
                if (i == slot)
                    continue;
                free_cores -= server.beAllocAt(i).cores;
                free_ways -= server.beAllocAt(i).ways;
            }
            if (free_cores < 1 || free_ways < 1 || rng.bernoulli(0.2)) {
                server.setBeAllocAt(now, slot,
                                    {0, 0, spec.freqMax, 1.0});
            } else {
                const double duty = rng.bernoulli(0.5)
                                        ? 1.0
                                        : rng.uniform(0.2, 1.0);
                server.setBeAllocAt(now, slot,
                                    {rng.uniformInt(1, free_cores),
                                     rng.uniformInt(1, free_ways),
                                     randomFreq(rng, spec), duty});
            }
            break;
        }
        default:
            server.setBeApp(
                now, slot,
                rng.bernoulli(0.25)
                    ? nullptr
                    : &set.be[static_cast<std::size_t>(
                          rng.uniformInt(0, 3))]);
            break;
        }

        fresh = evaluateFresh(server);
        EXPECT_EQ(server.latencyP99(), fresh.p99);
        EXPECT_EQ(server.slack99(), fresh.slack99);
        EXPECT_EQ(server.latencyP95(), fresh.p95);
        EXPECT_EQ(server.power().value(), fresh.power.value());
        for (std::size_t i = 0; i < slots; ++i)
            EXPECT_EQ(server.beThroughputAt(i).value(),
                      fresh.throughput[i].value());
        EXPECT_EQ(server.beThroughput().value(),
                  fresh.totalThroughput.value());
        EXPECT_EQ(server.stats().energyJoules.value(), energy.value());
        EXPECT_EQ(server.stats().beWorkDone, work);
        EXPECT_EQ(server.stats().intervals, intervals);
        EXPECT_EQ(server.stats().maxLatencyP99, max_p99);
        if (::testing::Test::HasFailure())
            return; // one diverging step is enough to report
    }
}

TEST_F(RuntimeTest, CachedObservablesNeverGoStale)
{
    for (const std::size_t slots : {1u, 3u})
        for (std::uint64_t seed = 1; seed <= 8; ++seed)
            checkCachedObservables(set_, slots, seed);
}

TEST_F(RuntimeTest, EnergyIntegrationOverStateChanges)
{
    const auto& lc = set_.lcByName("tpcc");
    ColocatedServer server(lc, nullptr, lc.provisionedPower());
    server.setLoad(0, 0.2 * lc.peakLoad());
    const Watts p1 = server.power();
    server.setLoad(10 * kSecond, 0.8 * lc.peakLoad());
    const Watts p2 = server.power();
    server.advanceTo(30 * kSecond);
    const double expect = (p1 * 10.0 + p2 * 20.0).value();
    EXPECT_NEAR(server.stats().energyJoules.value(), expect, 1e-6);
    EXPECT_EQ(server.stats().elapsed, 30 * kSecond);
    EXPECT_NEAR(server.stats().maxPower.value(),
                std::max(p1, p2).value(), 1e-12);
}

TEST_F(RuntimeTest, BeWorkAccumulates)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("lstm");
    ColocatedServer server(lc, &be, lc.provisionedPower());
    server.setLoad(0, 0.1 * lc.peakLoad());
    server.setPrimaryAlloc(0, {2, 2, GHz{2.2}, 1.0});
    server.setBeAlloc(0, {10, 18, GHz{2.2}, 1.0});
    const Rps thr = server.beThroughput();
    EXPECT_GT(thr, Rps{});
    server.advanceTo(20 * kSecond);
    EXPECT_NEAR(server.stats().beWorkDone, thr.value() * 20.0, 1e-9);
    EXPECT_NEAR(server.stats().averageBeThroughput().value(),
                thr.value(), 1e-9);
}

TEST_F(RuntimeTest, SloViolationTimeTracked)
{
    const auto& lc = set_.lcByName("img-dnn");
    ColocatedServer server(lc, nullptr, lc.provisionedPower());
    // Starve the primary at high load -> violation.
    server.setLoad(0, 0.9 * lc.peakLoad());
    server.setPrimaryAlloc(0, {1, 1, GHz{2.2}, 1.0});
    server.advanceTo(10 * kSecond);
    // Fix it.
    server.setPrimaryAlloc(10 * kSecond,
                           {12, 20, GHz{2.2}, 1.0});
    server.advanceTo(30 * kSecond);
    EXPECT_EQ(server.stats().sloViolationTime, 10 * kSecond);
    EXPECT_NEAR(server.stats().sloViolationFraction(), 1.0 / 3.0,
                1e-9);
}

TEST_F(RuntimeTest, GrowingPrimaryClipsSecondary)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("rnn");
    ColocatedServer server(lc, &be, lc.provisionedPower());
    server.setPrimaryAlloc(0, {4, 6, GHz{2.2}, 1.0});
    server.setBeAlloc(0, {8, 14, GHz{2.2}, 1.0});
    // Primary grows; the secondary must be clipped to fit.
    server.setPrimaryAlloc(kSecond, {8, 10, GHz{2.2}, 1.0});
    EXPECT_LE(server.beAlloc().cores, 4);
    EXPECT_LE(server.beAlloc().ways, 10);
}

TEST_F(RuntimeTest, InvalidTransitionsRejected)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("rnn");
    ColocatedServer server(lc, &be, lc.provisionedPower());
    server.setPrimaryAlloc(0, {8, 10, GHz{2.2}, 1.0});
    EXPECT_THROW(server.setBeAlloc(0, {5, 10, GHz{2.2}, 1.0}),
                 poco::FatalError); // overlaps
    EXPECT_THROW(server.setPrimaryAlloc(0, {0, 10, GHz{2.2}, 1.0}),
                 poco::FatalError); // primary must keep a core
    EXPECT_THROW(server.setLoad(0, Rps{-1.0}), poco::FatalError);
    ColocatedServer alone(lc, nullptr, lc.provisionedPower());
    EXPECT_THROW(alone.setBeAlloc(0, {1, 1, GHz{2.2}, 1.0}),
                 poco::FatalError); // no secondary present
}

TEST_F(RuntimeTest, CappedTimeCountsThrottledBe)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("graph");
    ColocatedServer server(lc, &be, lc.provisionedPower());
    server.setPrimaryAlloc(0, {2, 2, GHz{2.2}, 1.0});
    server.setBeAlloc(0, {10, 18, GHz{1.8}, 1.0}); // throttled frequency
    server.advanceTo(5 * kSecond);
    EXPECT_EQ(server.stats().cappedTime, 5 * kSecond);
    server.setBeAlloc(5 * kSecond, {10, 18, GHz{2.2}, 1.0});
    server.advanceTo(10 * kSecond);
    EXPECT_EQ(server.stats().cappedTime, 5 * kSecond);
}

TEST_F(RuntimeTest, ResetStatsClearsAccumulators)
{
    const auto& lc = set_.lcByName("tpcc");
    ColocatedServer server(lc, nullptr, lc.provisionedPower());
    server.setLoad(0, 0.5 * lc.peakLoad());
    server.advanceTo(10 * kSecond);
    EXPECT_GT(server.stats().energyJoules, Joules{});
    server.resetStats(10 * kSecond);
    EXPECT_EQ(server.stats().elapsed, 0);
    EXPECT_DOUBLE_EQ(server.stats().energyJoules.value(), 0.0);
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectSameStats(const ServerStats& a, const ServerStats& b)
{
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(bits(a.energyJoules.value()), bits(b.energyJoules.value()));
    EXPECT_EQ(bits(a.beWorkDone), bits(b.beWorkDone));
    EXPECT_EQ(a.sloViolationTime, b.sloViolationTime);
    EXPECT_EQ(a.cappedTime, b.cappedTime);
    EXPECT_EQ(bits(a.maxPower.value()), bits(b.maxPower.value()));
    EXPECT_EQ(bits(a.capOvershootJoules.value()),
              bits(b.capOvershootJoules.value()));
    EXPECT_EQ(a.intervals, b.intervals);
    EXPECT_EQ(bits(a.maxLatencyP99), bits(b.maxLatencyP99));
}

TEST_F(RuntimeTest, SteadyRollupIsTheFoldOfItsOwnWindow)
{
    const std::vector<wl::LoadTrace> traces = {
        wl::LoadTrace::constant(0.6),
        wl::LoadTrace::stepped({0.3, 0.9, 0.5}, 13 * kSecond)};
    // A dropout degrades the watchdog; a frozen meter draws probes.
    const fault::FaultPlan faults = fault::FaultPlan::fromWindows(
        {{12 * kSecond, 17 * kSecond, fault::FaultKind::SensorDropout,
          0.0, 0},
         {20 * kSecond, 35 * kSecond, fault::FaultKind::SensorStuck,
          0.0, 0}});
    // Neither edge of the window falls on a 100 ms telemetry tick.
    ServerManagerConfig config;
    config.warmup = 7 * kSecond + 130 * kMillisecond + 17;
    const SimTime duration = 40 * kSecond + 45 * kMillisecond + 3;

    std::vector<const wl::BeApp*> secondaries = {nullptr};
    for (const wl::BeApp& be : set_.be)
        secondaries.push_back(&be);

    // Every LC app with every BE app or none, under every combination
    // of controller, trace, and faults or none: one bit each.
    for (const wl::LcApp& lc : set_.lc) {
        const model::CobbDouglasUtility utility =
            model::UtilityFitter{}.fit(model::Profiler{}.profileLc(lc));
        const std::vector<
            std::function<std::unique_ptr<PrimaryController>()>>
            controllers = {
                [&] { return std::make_unique<PomController>(utility); },
                [] {
                    return std::make_unique<HeraclesController>(/*seed=*/3);
                }};
        const Watts cap = lc.provisionedPower();
        for (const wl::BeApp* secondary : secondaries) {
            for (unsigned combo = 0; combo < 8; ++combo) {
                const std::size_t c = combo & 1u;
                const std::size_t t = (combo >> 1) & 1u;
                const fault::FaultPlan* plan =
                    (combo & 4u) != 0 ? &faults : nullptr;
                SCOPED_TRACE(::testing::Message()
                             << lc.name() << " + "
                             << (secondary != nullptr ? secondary->name()
                                                      : "none")
                             << " controller " << c << " trace " << t
                             << " faults " << (plan != nullptr));
                const auto run = [&](bool keep) {
                    ServerManagerConfig cfg = config;
                    cfg.keepTelemetry = keep;
                    return runServerScenario(lc, secondary, cap,
                                             controllers[c](), traces[t],
                                             duration, cfg, plan);
                };
                const ServerRunResult plain = run(false);
                const ServerRunResult kept = run(true);

                EXPECT_TRUE(plain.telemetry.empty());
                ASSERT_FALSE(kept.telemetry.empty());
                expectSameStats(plain.stats, kept.stats);
                test::expectSameRollup(plain.steady, kept.steady);
                test::expectSameRollup(kept.steady,
                                 sim::foldTelemetry(kept.telemetry, cap,
                                                    config.warmup,
                                                    duration));
                EXPECT_EQ(plain.steady.start, config.warmup);
                EXPECT_EQ(plain.steady.end, duration);
                EXPECT_GT(plain.steady.samples, 300u);
                if (plan != nullptr && secondary != nullptr) {
                    EXPECT_GE(plain.faults.degradedEntries, 1);
                    EXPECT_EQ(plain.faults.degradedEntries,
                              kept.faults.degradedEntries);
                    EXPECT_EQ(plain.faults.probes, kept.faults.probes);
                }
            }
        }
    }
}

class ThrottlerTest : public ::testing::Test
{
  protected:
    wl::AppSet set_ = wl::defaultAppSet();
};

TEST_F(ThrottlerTest, StepsFrequencyDownWhenOverCap)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("graph");
    // Tight cap: the BE at full tilt exceeds it.
    ColocatedServer server(lc, &be, Watts{120.0});
    server.setLoad(0, 0.1 * lc.peakLoad());
    server.setPrimaryAlloc(0, {2, 2, GHz{2.2}, 1.0});
    server.setBeAlloc(0, {10, 18, GHz{2.2}, 1.0});
    server.advanceTo(kSecond);

    const BeThrottler throttler;
    const auto next = throttler.decide(
        server, 0, server.meter().average(kSecond, kThrottleWindow));
    EXPECT_NEAR(next.freq.value(), 2.1, 1e-9);
    EXPECT_DOUBLE_EQ(next.dutyCycle, 1.0);
}

TEST_F(ThrottlerTest, FallsBackToDutyAtFrequencyFloor)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("graph");
    ColocatedServer server(lc, &be, Watts{90.0}); // brutally tight
    server.setLoad(0, 0.1 * lc.peakLoad());
    server.setPrimaryAlloc(0, {2, 2, GHz{2.2}, 1.0});
    server.setBeAlloc(0, {10, 18, GHz{1.2}, 1.0}); // already at floor
    server.advanceTo(kSecond);

    const BeThrottler throttler;
    const auto next = throttler.decide(
        server, 0, server.meter().average(kSecond, kThrottleWindow));
    EXPECT_NEAR(next.freq.value(), 1.2, 1e-9);
    EXPECT_LT(next.dutyCycle, 1.0);
}

TEST_F(ThrottlerTest, ReleasesInReverseOrder)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("lstm");
    ColocatedServer server(lc, &be, Watts{1000.0}); // cap far away
    server.setLoad(0, 0.1 * lc.peakLoad());
    server.setPrimaryAlloc(0, {2, 2, GHz{2.2}, 1.0});
    server.setBeAlloc(0, {10, 18, GHz{1.2}, 0.5});
    server.advanceTo(kSecond);

    const BeThrottler throttler;
    // First duty recovers...
    auto next = throttler.decide(
        server, 0, server.meter().average(kSecond, kThrottleWindow));
    EXPECT_GT(next.dutyCycle, 0.5);
    EXPECT_NEAR(next.freq.value(), 1.2, 1e-9);
    // ...then frequency.
    server.setBeAlloc(kSecond, {10, 18, GHz{1.2}, 1.0});
    server.advanceTo(2 * kSecond);
    next = throttler.decide(
        server, 0, server.meter().average(2 * kSecond, kThrottleWindow));
    EXPECT_NEAR(next.freq.value(), 1.3, 1e-9);
}

TEST_F(ThrottlerTest, HoldsInsideHysteresisBand)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("lstm");
    ColocatedServer server(lc, &be, lc.provisionedPower());
    server.setLoad(0, 0.1 * lc.peakLoad());
    server.setPrimaryAlloc(0, {2, 2, GHz{2.2}, 1.0});
    server.setBeAlloc(0, {10, 18, GHz{2.1}, 1.0});
    server.advanceTo(kSecond);
    const Watts avg = server.meter().average(kSecond,
                                             100 * kMillisecond);
    // A cap 1 W above the current draw sits inside the release band,
    // so neither branch fires.
    static_assert(kReleaseMargin > Watts{1.0});
    ColocatedServer tight(lc, &be, avg + Watts{1.0});
    tight.setLoad(0, 0.1 * lc.peakLoad());
    tight.setPrimaryAlloc(0, {2, 2, GHz{2.2}, 1.0});
    tight.setBeAlloc(0, {10, 18, GHz{2.1}, 1.0});
    tight.advanceTo(kSecond);
    const BeThrottler throttler;
    const auto next = throttler.decide(
        tight, 0, tight.meter().average(kSecond, kThrottleWindow));
    EXPECT_TRUE(next == tight.beAlloc());
}

TEST_F(ThrottlerTest, ParkedBeUntouched)
{
    const auto& lc = set_.lcByName("xapian");
    const auto& be = set_.beByName("lstm");
    ColocatedServer server(lc, &be, lc.provisionedPower());
    const BeThrottler throttler;
    const auto next = throttler.decide(
        server, 0, server.meter().average(kSecond, kThrottleWindow));
    EXPECT_TRUE(next.empty());
}

} // namespace
} // namespace poco::server
