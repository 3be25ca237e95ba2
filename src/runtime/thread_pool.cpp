#include "runtime/thread_pool.hpp"

#include <chrono>

#include "util/check.hpp"

namespace poco::runtime
{

namespace
{

/**
 * Identity of the current thread within a pool, used to route nested
 * submissions to the spawning worker's own deque.
 */
thread_local ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = 0;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads == 0 ? hardwareThreads() : threads;
    queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<Queue>());
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back(
            [this, i] { workerLoop(static_cast<std::size_t>(i)); });
}

ThreadPool::~ThreadPool()
{
    {
        LockGuard guard(wakeMutex_);
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
        LockGuard wake(wakeMutex_);
        // Nested spawns from our own workers go to the spawning
        // worker's deque (LIFO locality); external submissions
        // round-robin.
        const std::size_t target = tls_pool == this
                                       ? tls_index
                                       : nextQueue_++ % queues_.size();
        // ready_ must be incremented before the task becomes visible
        // to poppers (both under wakeMutex_, push nested inside):
        // otherwise a concurrent pop could consume the task, find
        // ready_ still zero in noteTaskTaken(), and leave the later
        // increment permanently stale — with workers then spinning on
        // the "work available" predicate forever.
        ++ready_;
        Queue& queue = *queues_[target];
        LockGuard guard(queue.mutex);
        queue.tasks.push_back(std::move(task));
    }
    wake_.notifyOne();
}

bool
ThreadPool::popTask(std::size_t home, std::function<void()>& out)
{
    const std::size_t n = queues_.size();
    {
        Queue& queue = *queues_[home % n];
        LockGuard guard(queue.mutex);
        if (!queue.tasks.empty()) {
            out = std::move(queue.tasks.back());
            queue.tasks.pop_back();
            return true;
        }
    }
    for (std::size_t k = 1; k < n; ++k) {
        Queue& queue = *queues_[(home + k) % n];
        LockGuard guard(queue.mutex);
        if (!queue.tasks.empty()) {
            out = std::move(queue.tasks.front());
            queue.tasks.pop_front();
            return true;
        }
    }
    return false;
}

void
ThreadPool::noteTaskTaken()
{
    LockGuard guard(wakeMutex_);
    if (ready_ > 0)
        --ready_;
}

bool
ThreadPool::tryRunOne()
{
    const std::size_t home = tls_pool == this ? tls_index : 0;
    std::function<void()> task;
    if (!popTask(home, task))
        return false;
    noteTaskTaken();
    task();
    return true;
}

void
ThreadPool::workerLoop(std::size_t index)
{
    tls_pool = this;
    tls_index = index;
    std::function<void()> task;
    for (;;) {
        if (popTask(index, task)) {
            noteTaskTaken();
            task();
            task = nullptr;
            continue;
        }
        UniqueLock lock(wakeMutex_);
        // Explicit re-check loop: the thread-safety analysis cannot
        // see capabilities inside a predicate lambda (DESIGN.md §16).
        while (!stop_ && ready_ == 0)
            wake_.wait(lock);
        if (stop_ && ready_ == 0)
            break; // drained: every queued task has been taken
    }
    tls_pool = nullptr;
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
