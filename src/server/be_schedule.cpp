#include "server/be_schedule.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace poco::server
{

const char*
schedulePolicyName(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::Fcfs:       return "fcfs";
      case SchedulePolicy::Sjf:        return "sjf";
      case SchedulePolicy::RoundRobin: return "round-robin";
    }
    return "?";
}

double
ScheduleResult::meanCompletionSeconds() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& job : jobs) {
        if (job.finished()) {
            sum += toSeconds(job.completion);
            ++n;
        }
    }
    return n ? sum / static_cast<double>(n) : 0.0;
}

std::size_t
ScheduleResult::finishedCount() const
{
    std::size_t n = 0;
    for (const auto& job : jobs)
        n += job.finished();
    return n;
}

namespace
{

/**
 * Bookkeeping driver living alongside the server manager. Build it
 * after the manager: it installs the first job at t = 0, after the
 * manager's initial load.
 */
class Scheduler
{
  public:
    Scheduler(ColocatedServer& server, std::vector<BeJob> jobs,
              SchedulerConfig config)
        : server_(&server), config_(config)
    {
        for (auto& job : jobs) {
            POCO_REQUIRE(job.app != nullptr,
                         "job must carry an application");
            POCO_REQUIRE(job.work > 0.0,
                         "job work must be positive");
            jobs_.push_back(std::move(job));
            outcomes_.push_back(JobOutcome{jobs_.back().name, -1,
                                           0.0});
            remaining_.push_back(jobs_.back().work);
        }
        if (config_.policy == SchedulePolicy::Sjf) {
            order_.resize(jobs_.size());
            for (std::size_t i = 0; i < jobs_.size(); ++i)
                order_[i] = i;
            std::stable_sort(order_.begin(), order_.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return jobs_[a].work <
                                        jobs_[b].work;
                             });
        } else {
            for (std::size_t i = 0; i < jobs_.size(); ++i)
                order_.push_back(i);
        }
        switchTo(0, nextUnfinished(0));
    }

    /** Account the running job's progress at @p now; switch jobs. */
    void
    tick(SimTime now)
    {
        if (current_ >= jobs_.size())
            return;
        const double total = server_->beWorkAt(0);
        const double delta = total - work_mark_;
        work_mark_ = total;
        remaining_[current_] -= delta;
        outcomes_[current_].workDone += delta;
        if (remaining_[current_] <= 0.0) {
            outcomes_[current_].completion = now;
            last_completion_ = now;
            ++done_;
            // Position in order_ of the finished job, so RR
            // continues from the successor.
            switchTo(now, nextUnfinished(positionOf(current_)));
        } else if (config_.policy == SchedulePolicy::RoundRobin &&
                   now - quantum_start_ >= config_.quantum) {
            const std::size_t next =
                nextUnfinished(positionOf(current_) + 1);
            if (next != current_)
                switchTo(now, next);
            else
                quantum_start_ = now;
        }
    }

    bool allDone() const { return done_ == jobs_.size(); }

    const std::vector<JobOutcome>& outcomes() const
    {
        return outcomes_;
    }

    SimTime lastCompletion() const { return last_completion_; }

  private:
    std::size_t
    nextUnfinished(std::size_t from) const
    {
        for (std::size_t k = 0; k < order_.size(); ++k) {
            const std::size_t idx =
                order_[(from + k) % order_.size()];
            if (remaining_[idx] > 0.0)
                return idx;
        }
        return jobs_.size(); // none
    }

    void
    switchTo(SimTime now, std::size_t job)
    {
        current_ = job;
        server_->setBeApp(now, 0,
                          job < jobs_.size() ? jobs_[job].app
                                             : nullptr);
        work_mark_ = server_->beWorkAt(0);
        quantum_start_ = now;
    }

    std::size_t
    positionOf(std::size_t job) const
    {
        for (std::size_t k = 0; k < order_.size(); ++k)
            if (order_[k] == job)
                return k;
        poco::panic("job missing from schedule order");
    }

    ColocatedServer* server_;
    SchedulerConfig config_;

    std::vector<BeJob> jobs_;
    std::vector<double> remaining_;
    std::vector<JobOutcome> outcomes_;
    std::vector<std::size_t> order_;
    std::size_t current_ = 0;
    std::size_t done_ = 0;
    double work_mark_ = 0.0;
    SimTime quantum_start_ = 0;
    SimTime last_completion_ = 0;
};

} // namespace

ScheduleResult
runBeSchedule(const wl::LcApp& lc, std::vector<BeJob> jobs,
              Watts power_cap,
              std::unique_ptr<PrimaryController> controller,
              wl::LoadTrace trace, SimTime deadline,
              SchedulerConfig config)
{
    POCO_REQUIRE(!jobs.empty(), "schedule needs at least one job");
    POCO_REQUIRE(deadline > 0, "deadline must be positive");
    POCO_REQUIRE(config.quantum >= ServerManager::kTick,
                 "quantum must be at least one tick");

    // One secondary slot; the scheduler swaps applications in it.
    ColocatedServer server(lc, jobs.front().app, power_cap);
    ServerManager manager(server, std::move(controller),
                          std::move(trace), config.server);
    Scheduler scheduler(server, std::move(jobs), config);

    // Run until all jobs finish or the deadline passes, checking
    // between 10 s chunks; the scheduler ticks after the manager.
    const SimTime chunk = 10 * kSecond;
    while (manager.now() < deadline && !scheduler.allDone()) {
        const SimTime stop = std::min(deadline, manager.now() + chunk);
        for (SimTime t = manager.now() + ServerManager::kTick; t <= stop;
             t += ServerManager::kTick) {
            manager.runUntil(t);
            scheduler.tick(t);
        }
        manager.runUntil(stop);
    }
    server.advanceTo(manager.now());

    ScheduleResult result;
    result.jobs = scheduler.outcomes();
    result.allFinished = scheduler.allDone();
    result.makespan =
        result.allFinished ? scheduler.lastCompletion() : deadline;
    result.stats = server.stats();
    return result;
}

} // namespace poco::server
