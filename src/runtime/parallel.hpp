/**
 * @file
 * Data-parallel loops on top of the thread pool.
 *
 * The helpers here are the only parallel constructs the driver layer
 * uses: an index-space parallelFor and a parallelMap that writes each
 * result into its own slot. Both run serially when the pool is null,
 * and both are deterministic by construction — task i reads only
 * inputs addressed by i and writes only slot i, so the result is
 * bit-identical for any worker count, including the serial path.
 * Exceptions thrown by the body are rethrown at the call site (first
 * one wins).
 */

#pragma once

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace poco::runtime
{

/**
 * Run body(i) for every i in [0, n).
 *
 * The index space is split into contiguous chunks (several per
 * worker, so idle threads taking chunks from the one shared deque
 * balance skewed task sizes); @p grain is the minimum chunk length
 * for bodies too cheap to justify a dispatch each.
 */
void parallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& body,
                 std::size_t grain = 1);

/**
 * Collect {fn(0), ..., fn(n-1)} in index order. The element type
 * must be default-constructible; each task writes only its own slot.
 */
template <typename F>
auto
parallelMap(ThreadPool* pool, std::size_t n, F&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>>
{
    using T = std::decay_t<decltype(fn(std::size_t{0}))>;
    std::vector<T> out(n);
    parallelFor(pool, n,
                [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace poco::runtime
