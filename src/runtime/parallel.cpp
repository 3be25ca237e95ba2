#include "runtime/parallel.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace poco::runtime
{

void
parallelFor(ThreadPool* pool, std::size_t n,
            const std::function<void(std::size_t)>& body,
            std::size_t grain)
{
    POCO_REQUIRE(body != nullptr, "parallelFor needs a body");
    if (n == 0)
        return;
    if (pool == nullptr || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    const unsigned workers = pool->threadCount();

    // A few chunks per worker lets whichever thread is free take the
    // next one from the shared deque when task costs are skewed,
    // without paying per-index dispatch.
    const std::size_t target_chunks =
        std::min<std::size_t>(n, static_cast<std::size_t>(workers) * 4);
    const std::size_t chunk =
        std::max<std::size_t>(std::max<std::size_t>(grain, 1),
                              (n + target_chunks - 1) / target_chunks);

    TaskGroup group(pool);
    for (std::size_t lo = 0; lo < n; lo += chunk) {
        const std::size_t hi = std::min(n, lo + chunk);
        group.run([&body, lo, hi] {
            for (std::size_t i = lo; i < hi; ++i)
                body(i);
        });
    }
    group.wait();
}

} // namespace poco::runtime
