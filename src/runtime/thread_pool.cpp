#include "runtime/thread_pool.hpp"

#include <chrono>

#include "util/check.hpp"

namespace poco::runtime
{

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads == 0 ? hardwareThreads() : threads;
    workers_.reserve(n);
    try {
        for (unsigned i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // A thread failed to start: the ones already running wait on
        // wake_, which must not be destroyed under them.
        stopAndJoin();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    stopAndJoin();
}

void
ThreadPool::stopAndJoin()
{
    {
        LockGuard guard(mutex_);
        stop_ = true;
    }
    wake_.notifyAll();
    for (auto& worker : workers_)
        worker.join();
}

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool&
ThreadPool::global()
{
    // Intentionally leaked: the pool must outlive every static
    // consumer, and joining threads during exit teardown is UB-prone.
    static ThreadPool* pool = new ThreadPool();
    return *pool;
}

ThreadPool*
selectPool(ThreadPool* borrowed, int threads,
           std::unique_ptr<ThreadPool>& owned)
{
    if (borrowed != nullptr)
        return borrowed;
    if (threads == 1)
        return nullptr;
    if (threads <= 0)
        return &ThreadPool::global();
    owned = std::make_unique<ThreadPool>(static_cast<unsigned>(threads));
    return owned.get();
}

void
ThreadPool::submit(std::function<void()> task)
{
    POCO_REQUIRE(task != nullptr, "cannot submit an empty task");
    {
        LockGuard guard(mutex_);
        tasks_.push_back(std::move(task));
    }
    wake_.notifyOne();
}

bool
ThreadPool::tryRunOne()
{
    std::function<void()> task;
    {
        LockGuard guard(mutex_);
        if (tasks_.empty())
            return false;
        task = std::move(tasks_.back());
        tasks_.pop_back();
    }
    task();
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            UniqueLock lock(mutex_);
            // Explicit re-check loop: the thread-safety analysis cannot
            // see capabilities inside a predicate lambda (DESIGN.md §16).
            while (!stop_ && tasks_.empty())
                wake_.wait(lock);
            if (tasks_.empty())
                return; // stopping, and every queued task was taken
            task = std::move(tasks_.back());
            tasks_.pop_back();
        }
        task();
    }
}

TaskGroup::TaskGroup(ThreadPool* pool) : pool_(pool) {}

TaskGroup::~TaskGroup()
{
    try {
        wait();
    } catch (...) {
        // The destructor must not throw; call wait() explicitly to
        // observe task errors.
    }
}

void
TaskGroup::finishOne(std::exception_ptr error)
{
    // The notify must happen inside the critical section: a waiter
    // can only observe pending_ == 0 under mutex_, so it cannot
    // return from wait() — and destroy this group, condvar included —
    // until the notifying thread has left both the notify and the
    // lock. Notifying after unlocking would race wait()'s return
    // against notifyAll() on a dead condvar.
    LockGuard guard(mutex_);
    if (error && !error_)
        error_ = error;
    if (--pending_ == 0)
        done_.notifyAll();
}

bool
TaskGroup::idle()
{
    LockGuard guard(mutex_);
    return pending_ == 0;
}

void
TaskGroup::wait()
{
    while (!idle()) {
        // Helping instead of blocking is what makes nested groups
        // safe: a worker waiting here drains the pool — including the
        // subtasks it is waiting on — so no cyclic wait can form. The
        // timed wait covers the window where every remaining task is
        // already executing on some other thread.
        if (pool_ != nullptr && pool_->tryRunOne())
            continue;
        UniqueLock lock(mutex_);
        // No predicate overload (the analysis cannot see into the
        // lambda); the outer while re-checks pending_ after every
        // wakeup, spurious or timed-out alike.
        if (pending_ != 0)
            done_.waitFor(lock, std::chrono::microseconds(200));
    }
    std::exception_ptr error;
    {
        LockGuard guard(mutex_);
        error = std::exchange(error_, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace poco::runtime
