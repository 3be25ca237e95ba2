/**
 * @file
 * FNV-1a 64, the one hash behind every result fingerprint.
 *
 * Fingerprints (fleet and control-plane rollups, checkpoints, event
 * logs, liveness ledgers, scenarios, LP bases) are how the identity
 * tests and the bench gates say "bit for bit the same result". They
 * must be wall-clock free and platform independent, so words are
 * folded as 8 little-endian bytes and doubles by their IEEE-754 bit
 * pattern, never by native memory layout.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace poco::fnv
{

/**
 * The state of an empty fingerprint. This is the published FNV-1a 64
 * offset basis (14695981039346656037) with its last digit dropped.
 * Every recorded fingerprint and golden hash was computed from it,
 * so it stays; the mixing step below is standard FNV-1a.
 */
inline constexpr std::uint64_t kOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kPrime = 1099511628211ULL;

/** Fold one byte. */
constexpr void
mixByte(std::uint64_t& h, unsigned char byte)
{
    h ^= byte;
    h *= kPrime;
}

/** Fold @p word as 8 little-endian bytes. */
constexpr void
mixWord(std::uint64_t& h, std::uint64_t word)
{
    for (int byte = 0; byte < 8; ++byte) {
        mixByte(h, static_cast<unsigned char>(word & 0xffu));
        word >>= 8;
    }
}

/** Fold a double's bit pattern (so -0.0 and 0.0 differ). */
constexpr void
mixDouble(std::uint64_t& h, double value)
{
    mixWord(h, std::bit_cast<std::uint64_t>(value));
}

/** Fold a string's bytes, then its length (no prefix aliasing). */
constexpr void
mixString(std::uint64_t& h, std::string_view s)
{
    for (const char c : s)
        mixByte(h, static_cast<unsigned char>(c));
    mixWord(h, s.size());
}

} // namespace poco::fnv
