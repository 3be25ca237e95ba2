/**
 * @file
 * Time-sharing multiple best-effort jobs on one server's spare
 * capacity (Section V-G: "If there are more than one best-effort
 * application, they can be scheduled to time-share the server (e.g.
 * first-come first-served, shortest job first)").
 *
 * A BeJob is a finite amount of best-effort work (in the normalized
 * throughput units of wl::BeApp). The scheduler runs one job at a
 * time in the server's secondary slot, swapping applications at job
 * boundaries (FCFS, SJF) or at fixed quanta (round-robin), while the
 * usual machinery — primary controller, spare hand-off, power
 * throttler — keeps running untouched.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "server/server_manager.hpp"

namespace poco::server
{

/** A finite unit of best-effort work. */
struct BeJob
{
    std::string name;
    const wl::BeApp* app = nullptr;
    /** Remaining work in normalized throughput-seconds. */
    double work = 0.0;
};

/** Job ordering policy. */
enum class SchedulePolicy
{
    Fcfs,       ///< first-come first-served (submission order)
    Sjf,        ///< shortest job first (non-preemptive)
    RoundRobin, ///< rotate across unfinished jobs every quantum
};

const char* schedulePolicyName(SchedulePolicy policy);

/** Per-job outcome. */
struct JobOutcome
{
    std::string name;
    /** Completion time, or -1 when unfinished at the deadline. */
    SimTime completion = -1;
    double workDone = 0.0;

    bool finished() const { return completion >= 0; }
};

/** Aggregate schedule outcome. */
struct ScheduleResult
{
    std::vector<JobOutcome> jobs;
    /** Completion of the last job (deadline when unfinished). */
    SimTime makespan = 0;
    /**
     * The server's statistics from t = 0 to where the run stopped,
     * not to the makespan: the run advances in 10 s chunks and
     * stops at the first chunk boundary at or after the last
     * completion, or at the deadline, whichever comes first.
     */
    ServerStats stats;
    bool allFinished = false;

    /** Mean completion time over finished jobs, seconds. */
    double meanCompletionSeconds() const;
    std::size_t finishedCount() const;
};

/** Scheduler configuration. */
struct SchedulerConfig
{
    SchedulePolicy policy = SchedulePolicy::Fcfs;
    /**
     * Round-robin quantum (ignored by FCFS/SJF); at least one 100 ms
     * tick. The scheduler checks progress, and so switches jobs, at
     * every tick after the server manager's.
     */
    SimTime quantum = 10 * kSecond;
    ServerManagerConfig server;
};

/**
 * Run a batch of best-effort jobs beside a latency-critical primary
 * until all jobs finish or @p deadline passes.
 *
 * @param controller Primary-app controller (ownership transferred).
 * @param trace Offered-load trace for the primary.
 */
ScheduleResult
runBeSchedule(const wl::LcApp& lc, std::vector<BeJob> jobs,
              Watts power_cap,
              std::unique_ptr<PrimaryController> controller,
              wl::LoadTrace trace, SimTime deadline,
              SchedulerConfig config = {});

} // namespace poco::server
