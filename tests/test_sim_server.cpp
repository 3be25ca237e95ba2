/**
 * @file
 * Tests for allocations, spare computation, and telemetry.
 */

#include <gtest/gtest.h>

#include "sim/allocation.hpp"
#include "sim/server_spec.hpp"
#include "sim/telemetry.hpp"
#include "util/check.hpp"

namespace poco::sim
{
namespace
{

TEST(Allocation, ValidationAgainstSpec)
{
    const ServerSpec spec = xeonE5_2650();
    Allocation ok{4, 10, GHz{2.0}, 1.0};
    EXPECT_NO_THROW(ok.validate(spec));

    Allocation too_many_cores{13, 10, GHz{2.0}, 1.0};
    EXPECT_THROW(too_many_cores.validate(spec), poco::FatalError);
    Allocation too_many_ways{4, 21, GHz{2.0}, 1.0};
    EXPECT_THROW(too_many_ways.validate(spec), poco::FatalError);
    Allocation bad_freq{4, 10, GHz{3.0}, 1.0};
    EXPECT_THROW(bad_freq.validate(spec), poco::FatalError);
    Allocation bad_duty{4, 10, GHz{2.0}, 0.0};
    EXPECT_THROW(bad_duty.validate(spec), poco::FatalError);
}

TEST(Allocation, EmptyAndEquality)
{
    Allocation parked{0, 0, GHz{2.2}, 1.0};
    EXPECT_TRUE(parked.empty());
    Allocation a{4, 10, GHz{2.0}, 1.0};
    Allocation b{4, 10, GHz{2.0}, 1.0};
    EXPECT_TRUE(a == b);
    b.ways = 11;
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a.empty());
}

TEST(Allocation, ToStringFormat)
{
    Allocation a{4, 6, GHz{2.0}, 0.5};
    EXPECT_EQ(a.toString(), "4c/6w@2.0GHz d=0.50");
}

TEST(Allocation, FitsAndSpare)
{
    const ServerSpec spec = xeonE5_2650();
    Allocation primary{8, 12, GHz{2.2}, 1.0};
    Allocation small{4, 8, GHz{1.8}, 1.0};
    Allocation big{5, 8, GHz{1.8}, 1.0};
    EXPECT_TRUE(fits(primary, small, spec));
    EXPECT_FALSE(fits(primary, big, spec));

    const Allocation spare = spareOf(primary, spec);
    EXPECT_EQ(spare.cores, 4);
    EXPECT_EQ(spare.ways, 8);
    EXPECT_NEAR(spare.freq.value(), spec.freqMax.value(), 1e-12);
    EXPECT_DOUBLE_EQ(spare.dutyCycle, 1.0);
}

TEST(Telemetry, RecordsAndQueries)
{
    TelemetryRecorder rec;
    for (int i = 0; i < 10; ++i) {
        TelemetrySample s;
        s.when = i * kSecond;
        s.power = Watts{100.0 + i};
        s.beThroughput = Rps{0.1 * i};
        rec.record(s);
    }
    EXPECT_EQ(rec.size(), 10u);
    EXPECT_EQ(rec.latest().when, 9 * kSecond);
}

TEST(Telemetry, CapacityEvictsOldest)
{
    TelemetryRecorder rec(3);
    for (int i = 0; i < 5; ++i) {
        TelemetrySample s;
        s.when = i;
        rec.record(s);
    }
    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.all().front().when, 2);
}

TEST(Telemetry, RejectsOutOfOrder)
{
    TelemetryRecorder rec;
    TelemetrySample s;
    s.when = 10;
    rec.record(s);
    s.when = 5;
    EXPECT_THROW(rec.record(s), poco::FatalError);
}

TEST(Telemetry, EmptyQueries)
{
    TelemetryRecorder rec;
    EXPECT_TRUE(rec.empty());
    EXPECT_THROW(rec.latest(), poco::FatalError);
}

} // namespace
} // namespace poco::sim
