#include "wl/lc_app.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace poco::wl
{

LcApp::LcApp(LcAppParams params, sim::ServerSpec spec)
    : params_(std::move(params)), spec_(std::move(spec)),
      power_model_(spec_)
{
    spec_.validate();
    POCO_REQUIRE(params_.peakLoad > Rps{},
                 "peak load must be positive");
    POCO_REQUIRE(params_.slo99 > 0 && params_.slo95 > 0,
                 "SLOs must be positive");
    POCO_REQUIRE(params_.baseLatencyShare > 0 &&
                 params_.baseLatencyShare < 1,
                 "base latency share must be in (0, 1)");
    full_surface_ = params_.perf.evaluate(fullAllocation(), spec_);
    POCO_ASSERT(full_surface_ > 0, "degenerate performance surface");
}

sim::Allocation
LcApp::fullAllocation() const
{
    return sim::Allocation{spec_.cores, spec_.llcWays, spec_.freqMax,
                           1.0};
}

Rps
LcApp::capacity(const sim::Allocation& alloc) const
{
    // Normalize so the full allocation sustains exactly peakLoad.
    return params_.peakLoad *
           params_.perf.evaluate(alloc, spec_) / full_surface_;
}

double
LcApp::latencyP99(Rps load, const sim::Allocation& alloc) const
{
    return latencyP99(load, capacity(alloc));
}

double
LcApp::latencyP99(Rps load, Rps cap) const
{
    POCO_REQUIRE(load >= Rps{}, "load must be non-negative");
    const double base = params_.baseLatencyShare * params_.slo99;
    if (cap <= Rps{})
        return 100.0 * params_.slo99; // parked: effectively infinite
    // Max SLO-compliant occupancy: p99 = base / (1 - rho) hits slo99
    // exactly when rho = 1 - baseLatencyShare and load = capacity.
    const double rho_max = 1.0 - params_.baseLatencyShare;
    const double rho = rho_max * load / cap;
    if (rho >= 0.999)
        return 100.0 * params_.slo99; // saturated queue
    return base / (1.0 - rho);
}

double
LcApp::latencyP95(Rps load, const sim::Allocation& alloc) const
{
    return latencyP99(load, alloc) * params_.slo95 / params_.slo99;
}

double
LcApp::slack99(Rps load, const sim::Allocation& alloc) const
{
    return slack99(load, capacity(alloc));
}

double
LcApp::slack99(Rps load, Rps cap) const
{
    return 1.0 - latencyP99(load, cap) / params_.slo99;
}

double
LcApp::utilization(Rps load, const sim::Allocation& alloc) const
{
    const Rps cap = capacity(alloc);
    if (cap <= Rps{})
        return 0.0;
    return std::clamp(load / cap, 0.0, 1.0);
}

Watts
LcApp::power(Rps load, const sim::Allocation& alloc) const
{
    if (alloc.empty())
        return Watts{};
    sim::PowerDraw draw;
    draw.intensity = params_.power;
    draw.alloc = alloc;
    draw.utilization = utilization(load, alloc);
    return power_model_.appPower(draw);
}

Watts
LcApp::serverPower(Rps load, const sim::Allocation& alloc) const
{
    return spec_.idlePower + power(load, alloc);
}

Watts
LcApp::provisionedPower() const
{
    return serverPower(params_.peakLoad, fullAllocation());
}

} // namespace poco::wl
