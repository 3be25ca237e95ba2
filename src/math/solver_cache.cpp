#include "math/solver_cache.hpp"

#include <bit>

namespace poco::math
{

namespace
{

/** SplitMix64 finalizer: full-avalanche 64-bit mixer. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/**
 * 64-bit content hash of a rectangular matrix: dimensions plus every
 * element's bit pattern (row-major), mixed SplitMix64-style. Equal
 * content hashes equally regardless of the backing stride.
 */
std::uint64_t
hashMatrixContent(MatrixView value)
{
    std::uint64_t h = mix64(value.rows * kGolden + 1);
    if (value.rows > 0)
        h = mix64(h ^ (value.cols * kGolden));
    for (std::size_t i = 0; i < value.rows; ++i) {
        const double* row = value.row(i);
        for (std::size_t j = 0; j < value.cols; ++j)
            h = mix64(h ^ (std::bit_cast<std::uint64_t>(row[j]) +
                           kGolden));
    }
    return h;
}

} // namespace

bool
AssignmentCache::matches(const Entry& entry, MatrixView value)
{
    if (entry.rows != value.rows ||
        (entry.rows > 0 && entry.cols != value.cols))
        return false;
    std::size_t k = 0;
    for (std::size_t i = 0; i < value.rows; ++i) {
        const double* row = value.row(i);
        for (std::size_t j = 0; j < value.cols; ++j)
            // Bit-pattern equality (memcmp semantics): the key must
            // be the exact matrix that was solved, and NaNs or signed
            // zeros must not alias distinct instances.
            if (std::bit_cast<std::uint64_t>(entry.flat[k++]) !=
                std::bit_cast<std::uint64_t>(row[j]))
                return false;
    }
    return true;
}

std::optional<std::vector<int>>
AssignmentCache::lookup(MatrixView value) const
{
    const std::uint64_t h = hashMatrixContent(value);
    runtime::LockGuard guard(mutex_);
    if (auto it = buckets_.find(h); it != buckets_.end())
        for (const Entry& entry : it->second)
            if (matches(entry, value))
                return entry.assignment;
    return std::nullopt;
}

void
AssignmentCache::insert(MatrixView value, std::vector<int> assignment)
{
    Entry entry;
    entry.rows = value.rows;
    entry.cols = value.cols;
    entry.flat.reserve(entry.rows * entry.cols);
    for (std::size_t i = 0; i < value.rows; ++i) {
        const double* row = value.row(i);
        entry.flat.insert(entry.flat.end(), row, row + value.cols);
    }
    entry.assignment = std::move(assignment);

    const std::uint64_t h = hashMatrixContent(value);
    runtime::LockGuard guard(mutex_);
    auto& bucket = buckets_[h];
    // Racing writers compute identical values; keep the first.
    for (const Entry& existing : bucket)
        if (matches(existing, value))
            return;
    bucket.push_back(std::move(entry));
}

} // namespace poco::math
