/**
 * @file
 * Concurrent execution subsystem: a fixed-size work-stealing thread
 * pool with structured task groups.
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
 *  - One task deque per worker. A worker pops its own deque LIFO
 *    (cache locality for nested spawns) and steals FIFO from the
 *    other workers when its own deque is empty.
 *  - Waiters help: TaskGroup::wait() executes queued tasks on the
 *    waiting thread instead of blocking, so nested parallelism (a
 *    pool task spawning subtasks into the same pool) cannot deadlock
 *    even on a one-worker pool.
 *  - Exceptions thrown by TaskGroup tasks are captured and rethrown
 *    at the join point (first one wins); tasks submitted via the raw
 *    submit() must not throw.
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

/** Fixed-size work-stealing thread pool. */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means hardwareThreads().
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
     * Enqueue a task. Thread-safe; may be called from worker threads
     * (nested spawn, pushed to the caller's own deque). The task must
     * not throw — use TaskGroup for exception propagation.
     */
    void submit(std::function<void()> task);

    /**
     * Run one queued task on the calling thread, if any is available.
     * Used by join points to help instead of blocking.
     *
     * @return true if a task was executed.
     */
    bool tryRunOne();

    /**
     * The process-wide shared pool (hardwareThreads() workers),
     * created on first use and intentionally never destroyed so that
     * it outlives every static consumer.
     */
    static ThreadPool& global();

    /** std::thread::hardware_concurrency(), clamped to >= 1. */
    static unsigned hardwareThreads();

  private:
    struct Queue
    {
        Mutex mutex;
        std::deque<std::function<void()>> tasks
            POCO_GUARDED_BY(mutex);
    };

    /**
     * Pop a task: queue @p home LIFO first, then steal FIFO from the
     * others in ring order.
     */
    bool popTask(std::size_t home, std::function<void()>& out);
    void workerLoop(std::size_t index);
    void noteTaskTaken();

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;

    /** Sleep/wake bookkeeping; guards ready_, stop_, nextQueue_. */
    Mutex wakeMutex_;
    CondVar wake_;
    /** Queued-task count (wakeup hint). */
    std::size_t ready_ POCO_GUARDED_BY(wakeMutex_) = 0;
    bool stop_ POCO_GUARDED_BY(wakeMutex_) = false;

    /** Round-robin target for external submissions. */
    std::size_t nextQueue_ POCO_GUARDED_BY(wakeMutex_) = 0;
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
        if (pool_ == nullptr || pool_->threadCount() == 0) {
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
