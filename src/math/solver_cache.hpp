/**
 * @file
 * Thread-safe memo of exact assignment solves.
 *
 * cluster::IncrementalPlacer is the one owner: flapping event pairs
 * in the streaming control plane (crash/recover, A<->B load
 * oscillation) revisit byte-identical matrices, and a hit answers
 * without touching a solver. The batch paths keep no memo: their
 * 2x2 to 4x4 matrices cost about as much to hash as to solve.
 *
 * Keying: a 64-bit content hash of the matrix (dimensions plus the
 * raw bit pattern of every element, SplitMix64-style mixing) selects
 * a bucket; the bucket entries store the full matrix and an exact
 * element-wise comparison confirms the match, so a hash collision can
 * never return a wrong answer.
 *
 * Concurrency: a mutex guards the map, so concurrent callers may
 * look up and insert freely. Racing writers of one key store the
 * same value (the exact solvers are deterministic), and the first
 * insert wins.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "math/matrix_view.hpp"
#include "runtime/mutex.hpp"
#include "util/annotations.hpp"

namespace poco::math
{

/** Content-addressed memo of assignment solutions. */
class AssignmentCache
{
  public:
    /**
     * Look up the solution stored for @p value; exact element-wise
     * match required.
     */
    std::optional<std::vector<int>> lookup(MatrixView value) const;

    /** Store a solution; an exact duplicate key keeps the first. */
    void insert(MatrixView value, std::vector<int> assignment);

  private:
    struct Entry
    {
        std::size_t rows = 0;
        std::size_t cols = 0;
        std::vector<double> flat; // row-major copy of the key matrix
        std::vector<int> assignment;
    };

    static bool matches(const Entry& entry, MatrixView value);

    mutable runtime::Mutex mutex_;
    std::unordered_map<std::uint64_t, std::vector<Entry>> buckets_
        POCO_GUARDED_BY(mutex_);
};

} // namespace poco::math
