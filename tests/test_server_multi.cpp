/**
 * @file
 * Tests for the multi-secondary server runtime: slot priority,
 * per-slot accounting, application swapping, and lockstep
 * throttling.
 */

#include <gtest/gtest.h>

#include "server/be_throttler.hpp"
#include "server/colocated_server.hpp"
#include "util/check.hpp"
#include "wl/registry.hpp"

namespace poco::server
{
namespace
{

class MultiTest : public ::testing::Test
{
  protected:
    wl::AppSet set_ = wl::defaultAppSet();
};

TEST_F(MultiTest, TwoSlotsCoexist)
{
    const auto& lc = set_.lcByName("sphinx");
    ColocatedServer server(
        lc, {&set_.beByName("graph"), &set_.beByName("lstm")},
        lc.provisionedPower());
    EXPECT_EQ(server.secondaryCount(), 2u);
    server.setPrimaryAlloc(0, {2, 5, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 0, {6, 3, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 1, {4, 12, GHz{2.2}, 1.0});
    EXPECT_GT(server.beThroughputAt(0), Rps{});
    EXPECT_GT(server.beThroughputAt(1), Rps{});
    EXPECT_NEAR(server.beThroughput().value(),
                (server.beThroughputAt(0) + server.beThroughputAt(1))
                    .value(),
                1e-12);
    // Power includes both secondaries.
    const Watts with_both = server.power();
    server.setBeAllocAt(0, 1, {0, 0, GHz{2.2}, 1.0});
    EXPECT_LT(server.power(), with_both);
}

TEST_F(MultiTest, OverlapAcrossSlotsRejected)
{
    const auto& lc = set_.lcByName("sphinx");
    ColocatedServer server(
        lc, {&set_.beByName("graph"), &set_.beByName("lstm")},
        lc.provisionedPower());
    server.setPrimaryAlloc(0, {4, 8, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 0, {5, 6, GHz{2.2}, 1.0});
    // Remaining spare: 3 cores, 6 ways. Slot 1 must fit within it.
    EXPECT_THROW(server.setBeAllocAt(0, 1, {4, 6, GHz{2.2}, 1.0}),
                 poco::FatalError);
    EXPECT_NO_THROW(server.setBeAllocAt(0, 1, {3, 6, GHz{2.2}, 1.0}));
}

TEST_F(MultiTest, PrimaryGrowthClipsLowerPrioritySlotsFirst)
{
    const auto& lc = set_.lcByName("sphinx");
    ColocatedServer server(
        lc, {&set_.beByName("graph"), &set_.beByName("lstm")},
        lc.provisionedPower());
    server.setPrimaryAlloc(0, {2, 4, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 0, {5, 8, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 1, {5, 8, GHz{2.2}, 1.0});
    // Primary grows to 6 cores: spare cores 6; slot 0 keeps its 5,
    // slot 1 is clipped to 1.
    server.setPrimaryAlloc(kSecond, {6, 4, GHz{2.2}, 1.0});
    EXPECT_EQ(server.beAllocAt(0).cores, 5);
    EXPECT_EQ(server.beAllocAt(1).cores, 1);
}

TEST_F(MultiTest, PerSlotWorkAccounting)
{
    const auto& lc = set_.lcByName("sphinx");
    ColocatedServer server(
        lc, {&set_.beByName("graph"), &set_.beByName("lstm")},
        lc.provisionedPower());
    server.setPrimaryAlloc(0, {2, 4, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 0, {6, 4, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 1, {4, 12, GHz{2.2}, 1.0});
    const double r0 = server.beThroughputAt(0).value();
    const double r1 = server.beThroughputAt(1).value();
    server.advanceTo(10 * kSecond);
    EXPECT_NEAR(server.beWorkAt(0), 10.0 * r0, 1e-9);
    EXPECT_NEAR(server.beWorkAt(1), 10.0 * r1, 1e-9);
    EXPECT_NEAR(server.stats().beWorkDone, 10.0 * (r0 + r1), 1e-9);
    server.resetStats(10 * kSecond);
    EXPECT_DOUBLE_EQ(server.beWorkAt(0), 0.0);
}

TEST_F(MultiTest, AppSwapChangesThroughputAndPower)
{
    // Time-sharing primitive: same allocation, different app.
    const auto& lc = set_.lcByName("xapian");
    ColocatedServer server(lc, &set_.beByName("lstm"),
                           lc.provisionedPower());
    server.setPrimaryAlloc(0, {2, 4, GHz{2.2}, 1.0});
    server.setBeAlloc(0, {8, 10, GHz{2.2}, 1.0});
    const double thr_lstm = server.beThroughput().value();
    const Watts p_lstm = server.power();

    server.setBeApp(kSecond, 0, &set_.beByName("graph"));
    const double thr_graph = server.beThroughput().value();
    const Watts p_graph = server.power();
    EXPECT_NE(thr_lstm, thr_graph);
    EXPECT_NE(p_lstm, p_graph);

    // Idling the slot zeroes both.
    server.setBeApp(2 * kSecond, 0, nullptr);
    EXPECT_DOUBLE_EQ(server.beThroughput().value(), 0.0);
    EXPECT_THROW(server.setBeApp(0, 5, nullptr), poco::FatalError);
}

TEST_F(MultiTest, ThrottlerDecidesPerSlot)
{
    const auto& lc = set_.lcByName("xapian");
    ColocatedServer server(
        lc, {&set_.beByName("graph"), &set_.beByName("pbzip2")},
        /*power_cap=*/Watts{110.0}); // deliberately tight
    server.setLoad(0, 0.1 * lc.peakLoad());
    server.setPrimaryAlloc(0, {2, 2, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 0, {5, 9, GHz{2.2}, 1.0});
    server.setBeAllocAt(0, 1, {5, 9, GHz{2.2}, 1.0});
    server.advanceTo(kSecond);

    const BeThrottler throttler;
    // The reading the server manager passes: the meter's window.
    const Watts measured =
        server.meter().average(kSecond, kThrottleWindow);
    const auto slot0 = throttler.decide(server, 0, measured);
    const auto slot1 = throttler.decide(server, 1, measured);
    // Both slots step down one frequency notch.
    EXPECT_NEAR(slot0.freq.value(), 2.1, 1e-9);
    EXPECT_NEAR(slot1.freq.value(), 2.1, 1e-9);
    EXPECT_THROW(throttler.decide(server, 2, measured),
                 poco::FatalError);
}

TEST_F(MultiTest, ZeroSlotServerBehaves)
{
    const auto& lc = set_.lcByName("tpcc");
    ColocatedServer server(lc, nullptr, lc.provisionedPower());
    EXPECT_EQ(server.secondaryCount(), 0u);
    EXPECT_EQ(server.be(), nullptr);
    EXPECT_TRUE(server.beAlloc().empty());
    EXPECT_DOUBLE_EQ(server.beThroughput().value(), 0.0);
    EXPECT_THROW(server.beAllocAt(0), poco::FatalError);
    EXPECT_THROW(server.beWorkAt(0), poco::FatalError);
}

} // namespace
} // namespace poco::server
