#include "server/colocated_server.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace poco::server
{

Watts
ServerStats::averagePower() const
{
    return elapsed > 0 ? energyJoules / simSeconds(elapsed)
                       : Watts{};
}

Rps
ServerStats::averageBeThroughput() const
{
    return elapsed > 0 ? Rps{beWorkDone / toSeconds(elapsed)}
                       : Rps{};
}

double
ServerStats::sloViolationFraction() const
{
    return elapsed > 0
               ? static_cast<double>(sloViolationTime) /
                     static_cast<double>(elapsed)
               : 0.0;
}

double
ServerStats::cappedFraction() const
{
    return elapsed > 0
               ? static_cast<double>(cappedTime) /
                     static_cast<double>(elapsed)
               : 0.0;
}

ColocatedServer::ColocatedServer(const wl::LcApp& lc,
                                 const wl::BeApp* be, Watts power_cap)
    : lc_(&lc)
{
    if (be != nullptr)
        secondaries_.push_back(Secondary{be, {}, 0.0, Rps{}});
    init(power_cap);
}

ColocatedServer::ColocatedServer(
    const wl::LcApp& lc, std::vector<const wl::BeApp*> secondaries,
    Watts power_cap)
    : lc_(&lc)
{
    for (const wl::BeApp* be : secondaries)
        secondaries_.push_back(Secondary{be, {}, 0.0, Rps{}});
    init(power_cap);
}

void
ColocatedServer::init(Watts power_cap)
{
    POCO_REQUIRE(power_cap > Watts{}, "power cap must be positive");
    power_cap_ = power_cap;
    // Boot with the primary owning the whole machine and all
    // secondaries parked — the controllers carve out spare capacity.
    primary_ = lc_->fullAllocation();
    empty_alloc_ = sim::Allocation{0, 0, spec().freqMax, 1.0};
    for (auto& s : secondaries_)
        s.alloc = empty_alloc_;
    refresh(0);
}

const wl::BeApp*
ColocatedServer::be() const
{
    return secondaries_.empty() ? nullptr : secondaries_.front().app;
}

const wl::BeApp*
ColocatedServer::beAppAt(std::size_t i) const
{
    POCO_REQUIRE(i < secondaries_.size(),
                 "secondary slot out of range");
    return secondaries_[i].app;
}

const sim::Allocation&
ColocatedServer::beAlloc() const
{
    return secondaries_.empty() ? empty_alloc_
                                : secondaries_.front().alloc;
}

const sim::Allocation&
ColocatedServer::beAllocAt(std::size_t i) const
{
    POCO_REQUIRE(i < secondaries_.size(),
                 "secondary slot out of range");
    return secondaries_[i].alloc;
}

void
ColocatedServer::setLoad(SimTime now, Rps load)
{
    POCO_REQUIRE(load >= Rps{}, "load must be non-negative");
    integrate(now);
    load_ = load;
    refresh(now);
}

void
ColocatedServer::otherUsage(std::size_t skip, int& cores,
                            int& ways) const
{
    cores = 0;
    ways = 0;
    for (std::size_t i = 0; i < secondaries_.size(); ++i) {
        if (i == skip)
            continue;
        cores += secondaries_[i].alloc.cores;
        ways += secondaries_[i].alloc.ways;
    }
}

void
ColocatedServer::setPrimaryAlloc(SimTime now,
                                 const sim::Allocation& alloc)
{
    alloc.validate(spec());
    POCO_REQUIRE(alloc.cores >= 1 && alloc.ways >= 1,
                 "primary must retain at least one core and way");
    integrate(now);
    primary_ = alloc;
    // Clip secondaries into the new spare if the primary grew. Later
    // slots are clipped first so slot 0 keeps priority.
    int spare_cores = spec().cores - primary_.cores;
    int spare_ways = spec().llcWays - primary_.ways;
    for (std::size_t i = 0; i < secondaries_.size(); ++i) {
        auto& s = secondaries_[i];
        // Reserve what earlier (higher-priority) slots already hold.
        int reserved_cores = 0, reserved_ways = 0;
        for (std::size_t j = 0; j < i; ++j) {
            reserved_cores += secondaries_[j].alloc.cores;
            reserved_ways += secondaries_[j].alloc.ways;
        }
        s.alloc.cores = std::min(s.alloc.cores,
                                 std::max(0, spare_cores -
                                                 reserved_cores));
        s.alloc.ways = std::min(s.alloc.ways,
                                std::max(0, spare_ways -
                                                reserved_ways));
    }
    refresh(now);
}

void
ColocatedServer::setBeAlloc(SimTime now, const sim::Allocation& alloc)
{
    setBeAllocAt(now, 0, alloc);
}

void
ColocatedServer::setBeAllocAt(SimTime now, std::size_t i,
                              const sim::Allocation& alloc)
{
    POCO_REQUIRE(i < secondaries_.size(),
                 "cannot allocate to an absent secondary");
    if (!alloc.empty()) {
        alloc.validate(spec());
        int other_cores = 0, other_ways = 0;
        otherUsage(i, other_cores, other_ways);
        POCO_REQUIRE(primary_.cores + other_cores + alloc.cores <=
                             spec().cores &&
                     primary_.ways + other_ways + alloc.ways <=
                             spec().llcWays,
                     "secondary allocation overlaps other tenants");
    }
    integrate(now);
    secondaries_[i].alloc = alloc;
    refresh(now);
}

void
ColocatedServer::setBeApp(SimTime now, std::size_t i,
                          const wl::BeApp* be)
{
    POCO_REQUIRE(i < secondaries_.size(),
                 "secondary slot out of range");
    integrate(now);
    secondaries_[i].app = be;
    refresh(now);
}

double
ColocatedServer::latencyP99() const
{
    return p99_;
}

double
ColocatedServer::latencyP95() const
{
    return p99_ * lc_->slo95() / lc_->slo99();
}

double
ColocatedServer::slack99() const
{
    return 1.0 - p99_ / lc_->slo99();
}

Watts
ColocatedServer::power() const
{
    return power_;
}

Rps
ColocatedServer::beThroughput() const
{
    Rps total;
    for (const auto& s : secondaries_)
        total += s.throughput;
    return total;
}

Rps
ColocatedServer::beThroughputAt(std::size_t i) const
{
    POCO_REQUIRE(i < secondaries_.size(),
                 "secondary slot out of range");
    return secondaries_[i].throughput;
}

void
ColocatedServer::integrate(SimTime now)
{
    POCO_REQUIRE(now >= last_integrated_,
                 "server time must be monotone");
    const SimTime dt = now - last_integrated_;
    if (dt == 0)
        return;
    // The cache holds the state being integrated: every setter
    // integrates before it mutates and refreshes after.
    const Watts p = power_;
    stats_.elapsed += dt;
    stats_.energyJoules += p * simSeconds(dt);
    bool throttled = false;
    for (auto& s : secondaries_) {
        const double work = s.throughput.value() * toSeconds(dt);
        s.workDone += work;
        stats_.beWorkDone += work;
        throttled = throttled ||
                    (s.app != nullptr && !s.alloc.empty() &&
                     (s.alloc.dutyCycle < 1.0 ||
                      s.alloc.freq < spec().freqMax - GHz{1e-9}));
    }
    if (p99_ > lc_->slo99())
        stats_.sloViolationTime += dt;
    if (throttled)
        stats_.cappedTime += dt;
    stats_.capOvershootJoules +=
        std::max(Watts{}, p - power_cap_) * simSeconds(dt);
    stats_.maxPower = std::max(stats_.maxPower, p);
    last_integrated_ = now;
}

double
ColocatedServer::beWorkAt(std::size_t i) const
{
    POCO_REQUIRE(i < secondaries_.size(),
                 "secondary slot out of range");
    return secondaries_[i].workDone;
}

void
ColocatedServer::refresh(SimTime now)
{
    p99_ = lc_->latencyP99(load_, primary_);
    power_ = spec().idlePower + lc_->power(load_, primary_);
    for (auto& s : secondaries_) {
        const bool running = s.app != nullptr && !s.alloc.empty();
        s.throughput = running ? s.app->throughput(s.alloc) : Rps{};
        if (running)
            power_ += s.app->power(s.alloc);
    }
    meter_.setPower(now, power_);
}

void
ColocatedServer::advanceTo(SimTime now)
{
    integrate(now);
}

void
ColocatedServer::resetStats(SimTime now)
{
    integrate(now);
    stats_ = ServerStats{};
    for (auto& s : secondaries_)
        s.workDone = 0.0;
}

} // namespace poco::server
