/**
 * @file
 * Tests for the thread pool and its one shared deque: lifecycle, load
 * balance under skewed task sizes, exception propagation out of
 * parallelFor, nested task groups, and joins that help while every
 * worker is busy. Runs under the tier-tsan label so a ThreadSanitizer
 * build (-DPOCO_SANITIZE=thread) vets the pool's synchronization
 * in-tree, and under tier-asan so an AddressSanitizer build checks
 * the task lifetimes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/check.hpp"

namespace poco::runtime
{
namespace
{

/** Deterministic busy work so tasks have a real, skewable cost. */
double
spin(std::size_t iterations)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < iterations; ++i)
        acc += static_cast<double>(i % 7) * 1e-9;
    return acc;
}

TEST(ThreadPool, StartsAndStopsRepeatedly)
{
    for (int round = 0; round < 3; ++round) {
        ThreadPool pool(4);
        EXPECT_EQ(pool.threadCount(), 4u);
        std::atomic<int> ran{0};
        TaskGroup group(&pool);
        group.run([&] { ++ran; });
        group.wait();
        EXPECT_EQ(ran.load(), 1);
        // Destructor joins the workers; the next round restarts.
    }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), ThreadPool::hardwareThreads());
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPool, GlobalPoolIsASingleton)
{
    EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
    EXPECT_GE(ThreadPool::global().threadCount(), 1u);
}

TEST(ThreadPool, ExecutesEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 500; ++i)
        group.run([&] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPool, BalancesSkewedTaskSizes)
{
    // A few huge tasks next to many tiny ones: whichever worker
    // dequeues a big chunk keeps it while the others take the rest
    // from the shared deque. Every index must run exactly once
    // regardless.
    ThreadPool pool(4);
    constexpr std::size_t kTasks = 64;
    std::vector<std::atomic<int>> hits(kTasks);
    parallelFor(&pool, kTasks, [&](std::size_t i) {
        spin(i % 16 == 0 ? 400000 : 1000);
        ++hits[i];
    });
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, MatchesSerialResults)
{
    ThreadPool pool(3);
    std::vector<long> parallel(1000, 0), serial(1000, 0);
    parallelFor(&pool, parallel.size(), [&](std::size_t i) {
        parallel[i] = static_cast<long>(i * i) - 3;
    });
    parallelFor(nullptr, serial.size(), [&](std::size_t i) {
        serial[i] = static_cast<long>(i * i) - 3;
    });
    EXPECT_EQ(parallel, serial);
}

TEST(ParallelFor, SerialFallbackWithNullPool)
{
    int ran = 0;
    parallelFor(nullptr, 10, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 10);
}

TEST(ParallelFor, RespectsGrain)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    parallelFor(&pool, 100, [&](std::size_t) { ++ran; }, 64);
    EXPECT_EQ(ran.load(), 100);
}

TEST(ParallelFor, PropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        parallelFor(&pool, 100,
                    [](std::size_t i) {
                        if (i == 37)
                            poco::fatal("task 37 exploded");
                    }),
        poco::FatalError);

    // The pool survives a failed wave and keeps executing.
    std::atomic<int> ran{0};
    parallelFor(&pool, 50, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 50);
}

TEST(ParallelMap, CollectsInIndexOrder)
{
    ThreadPool pool(4);
    const auto out = parallelMap(&pool, 128, [](std::size_t i) {
        return static_cast<int>(i) * 2;
    });
    ASSERT_EQ(out.size(), 128u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) * 2);
}

TEST(TaskGroup, NestedGroupsDoNotDeadlock)
{
    // Outer tasks spawn inner parallel loops into the same two-worker
    // pool; waiters must help drain the pool or this would wedge.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    TaskGroup outer(&pool);
    for (int i = 0; i < 8; ++i)
        outer.run([&] {
            parallelFor(&pool, 16, [&](std::size_t) { ++ran; });
        });
    outer.wait();
    EXPECT_EQ(ran.load(), 8 * 16);
}

TEST(TaskGroup, NestedOnSingleWorkerPool)
{
    // The degenerate pool still completes nested spawns because the
    // joining threads execute queued tasks themselves.
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    TaskGroup outer(&pool);
    outer.run([&] {
        parallelFor(&pool, 8, [&](std::size_t) { ++ran; });
    });
    outer.wait();
    EXPECT_EQ(ran.load(), 8);
}

TEST(TaskGroup, WaiterHelpsWhileEveryWorkerIsBusy)
{
    // A thread outside the pool joins while the only worker is held
    // by a blocker: only the waiter's own helping can run the group.
    ThreadPool pool(1);
    std::atomic<bool> started{false};
    std::atomic<bool> release{false};
    TaskGroup blocker(&pool);
    blocker.run([&] {
        started = true;
        while (!release)
            std::this_thread::yield();
    });
    while (!started)
        std::this_thread::yield();

    std::atomic<int> ran{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i)
        group.run([&] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 64);

    release = true;
    blocker.wait();
}

TEST(TaskGroup, ReusableAfterWait)
{
    ThreadPool pool(2);
    TaskGroup group(&pool);
    std::atomic<int> ran{0};
    group.run([&] { ++ran; });
    group.wait();
    group.run([&] { ++ran; });
    group.run([&] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 3);
}

TEST(TaskGroup, InlineModeRunsImmediately)
{
    TaskGroup group(nullptr);
    int ran = 0;
    group.run([&] { ++ran; });
    EXPECT_EQ(ran, 1); // ran before wait(): inline execution
    group.wait();
}

TEST(TaskGroup, InlineModeStillPropagatesExceptions)
{
    TaskGroup group(nullptr);
    group.run([] { poco::fatal("inline failure"); });
    EXPECT_THROW(group.wait(), poco::FatalError);
}

TEST(ThreadPool, SubmitFromExternalThreads)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    TaskGroup group(&pool);
    std::vector<std::thread> producers;
    producers.reserve(4);
    for (int t = 0; t < 4; ++t)
        producers.emplace_back([&] {
            for (int i = 0; i < 25; ++i)
                group.run([&] { ++ran; });
        });
    for (auto& producer : producers)
        producer.join();
    group.wait();
    EXPECT_EQ(ran.load(), 100);
}

} // namespace
} // namespace poco::runtime
