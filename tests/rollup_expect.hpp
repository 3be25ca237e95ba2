/**
 * @file
 * Bitwise comparison of telemetry rollups for tests: a server run's
 * rollup, the fold of its samples and the fold's oracle must agree
 * bit for bit, not within a tolerance.
 */

#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sim/telemetry_rollup.hpp"

namespace poco::test
{

/** Expect every field of @p got to equal @p want's, doubles bitwise. */
inline void
expectSameRollup(const sim::EpochRollup& got, const sim::EpochRollup& want)
{
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    EXPECT_EQ(got.start, want.start);
    EXPECT_EQ(got.end, want.end);
    EXPECT_EQ(got.samples, want.samples);
    EXPECT_EQ(bits(got.meanPower.value()), bits(want.meanPower.value()));
    EXPECT_EQ(bits(got.meanBeThroughput.value()),
              bits(want.meanBeThroughput.value()));
    EXPECT_EQ(bits(got.energy.value()), bits(want.energy.value()));
    EXPECT_EQ(bits(got.capOvershoot.value()),
              bits(want.capOvershoot.value()));
    EXPECT_EQ(bits(got.maxLatencyP99), bits(want.maxLatencyP99));
}

} // namespace poco::test
