/**
 * @file
 * Concurrent execution subsystem: a fixed-size thread pool over one
 * shared task deque, with structured task groups.
 *
 * Every simulated server in Pocolo owns its own clock, and every
 * stochastic stage either pre-sequences its random draws or forks an
 * order-independent stream per task (Rng::split), so whole-cluster
 * evaluations decompose into independent tasks. This pool is the
 * substrate the parallel driver layer (profiler grids, per-app fits,
 * performance-matrix cells, and per-server ClusterEvaluator runs)
 * executes on. Results are required to be bit-identical to the serial
 * path: tasks write into index-addressed slots and never share
 * mutable state.
 *
 * Design:
 *  - One deque under one mutex. Workers and helping waiters pop the
 *    newest task, so a join usually runs the subtasks it just
 *    spawned.
 *  - Waiters help: TaskGroup::wait() executes queued tasks on the
 *    waiting thread instead of blocking, so nested parallelism (a
 *    pool task spawning subtasks into the same pool) cannot deadlock
 *    even on a one-worker pool.
 *  - TaskGroup (and parallelFor / parallelMap on top of it) is the
 *    only way to spawn. Exceptions thrown by its tasks are captured
 *    and rethrown at the join point (first one wins).
 */

#pragma once

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/mutex.hpp"
#include "util/annotations.hpp"

namespace poco::runtime
{

/** Fixed-size thread pool over one shared task deque. */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means hardwareThreads().
     * @throws std::system_error when a worker fails to start, after
     *         joining the workers already started.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains already-submitted tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * The process-wide shared pool (hardwareThreads() workers),
     * created on first use and intentionally never destroyed so that
     * it outlives every static consumer.
     */
    static ThreadPool& global();

    /** std::thread::hardware_concurrency(), clamped to >= 1. */
    static unsigned hardwareThreads();

  private:
    friend class TaskGroup;

    /** Enqueue a task, which must not throw, and wake one worker. */
    void submit(std::function<void()> task);

    /**
     * Run the newest queued task on the calling thread, if any, so a
     * join point helps instead of blocking.
     *
     * @return true if a task was executed.
     */
    bool tryRunOne();

    void workerLoop();
    /** Stop the workers once the deque drains, and join them. */
    void stopAndJoin();

    std::vector<std::thread> workers_;
    Mutex mutex_;
    CondVar wake_;
    std::deque<std::function<void()>> tasks_ POCO_GUARDED_BY(mutex_);
    bool stop_ POCO_GUARDED_BY(mutex_) = false;
};

/**
 * The one rule mapping a `threads` setting to the pool work runs on:
 * a @p borrowed pool wins; 1 runs serial (null); <= 0 uses the shared
 * global(); N > 1 builds a dedicated N-worker pool into @p owned,
 * which the caller keeps alive for as long as it uses the result.
 * No result depends on the choice.
 */
ThreadPool* selectPool(ThreadPool* borrowed, int threads,
                       std::unique_ptr<ThreadPool>& owned);

/**
 * A set of tasks joined as a unit ("structured concurrency").
 *
 * run() spawns onto the pool (or runs inline when the pool is null);
 * wait() helps execute queued work until every spawned task finished,
 * then rethrows the first captured exception, after which the group
 * is empty and reusable. The destructor waits but swallows errors —
 * call wait() explicitly to observe them.
 */
class TaskGroup
{
  public:
    /** @param pool Null runs every task inline (serial mode). */
    explicit TaskGroup(ThreadPool* pool);
    TaskGroup() : TaskGroup(&ThreadPool::global()) {}
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /** Spawn one task. */
    template <typename F>
    void
    run(F&& fn)
    {
        if (pool_ == nullptr) {
            runInline(std::forward<F>(fn));
            return;
        }
        {
            LockGuard guard(mutex_);
            ++pending_;
        }
        pool_->submit(
            [this, task = std::forward<F>(fn)]() mutable {
                std::exception_ptr error;
                try {
                    task();
                } catch (...) {
                    error = std::current_exception();
                }
                finishOne(error);
            });
    }

    /**
     * Join: help run pool tasks until all spawned tasks completed,
     * then rethrow the first captured exception (if any).
     */
    void wait();

  private:
    template <typename F>
    void
    runInline(F&& fn)
    {
        try {
            std::forward<F>(fn)();
        } catch (...) {
            LockGuard guard(mutex_);
            if (!error_)
                error_ = std::current_exception();
        }
    }

    void finishOne(std::exception_ptr error);
    bool idle();

    ThreadPool* pool_;
    Mutex mutex_;
    CondVar done_;
    std::size_t pending_ POCO_GUARDED_BY(mutex_) = 0;
    std::exception_ptr error_ POCO_GUARDED_BY(mutex_);
};

} // namespace poco::runtime
