/**
 * @file
 * Latency-critical application model.
 *
 * The deployment is right-sized so that the full server allocation
 * sustains exactly the peak load at the p99 SLO. For smaller
 * allocations the sustainable capacity shrinks along the app's
 * performance surface, and tail latency blows up M/M/1-style as the
 * offered load approaches that capacity.
 */

#pragma once

#include <string>

#include "sim/allocation.hpp"
#include "sim/power_model.hpp"
#include "sim/server_spec.hpp"
#include "util/units.hpp"
#include "wl/app_model.hpp"

namespace poco::wl
{

/** Ground truth for one latency-critical (primary) application. */
class LcApp
{
  public:
    /**
     * @param params Calibrated application parameters.
     * @param spec The server platform it is deployed on.
     */
    LcApp(LcAppParams params, sim::ServerSpec spec);

    const std::string& name() const { return params_.name; }
    const sim::ServerSpec& spec() const { return spec_; }
    Rps peakLoad() const { return params_.peakLoad; }
    double slo95() const { return params_.slo95; }
    double slo99() const { return params_.slo99; }
    const sim::PowerIntensity& powerIntensity() const
    {
        return params_.power;
    }

    /**
     * Maximum load (requests/s) the allocation sustains while meeting
     * the p99 SLO — the paper's LC performance metric.
     */
    Rps capacity(const sim::Allocation& alloc) const;

    /** p99 latency (seconds) at the given offered load. */
    double latencyP99(Rps load, const sim::Allocation& alloc) const;

    /**
     * p99 latency at @p load on an allocation whose capacity() is
     * @p cap: the same expression, for callers that hold the
     * capacity across many loads (the profiler's bisection).
     */
    double latencyP99(Rps load, Rps cap) const;

    /** p95 latency (seconds); scaled from p99 by the SLO ratio. */
    double latencyP95(Rps load, const sim::Allocation& alloc) const;

    /**
     * Tail-latency slack: 1 - p99/slo99. Positive when the SLO is met;
     * the paper's controllers target slack >= 0.10.
     */
    double slack99(Rps load, const sim::Allocation& alloc) const;

    /** slack99 on an allocation whose capacity() is @p cap. */
    double slack99(Rps load, Rps cap) const;

    /**
     * Core-busy fraction in [0, 1] used by the power model: offered
     * load relative to the allocation's SLO capacity.
     */
    double utilization(Rps load, const sim::Allocation& alloc) const;

    /** Power this app contributes at the given load and allocation. */
    Watts power(Rps load, const sim::Allocation& alloc) const;

    /**
     * Server power at the given load/allocation with no co-runner:
     * static power plus this app's contribution.
     */
    Watts serverPower(Rps load, const sim::Allocation& alloc) const;

    /**
     * Provisioned power capacity: server power at peak load on the
     * full allocation (the right-sizing rule of Section II-A).
     */
    Watts provisionedPower() const;

    /** The full-server allocation at maximum frequency. */
    sim::Allocation fullAllocation() const;

  private:
    LcAppParams params_;
    sim::ServerSpec spec_;
    sim::PowerModel power_model_;
    double full_surface_;  ///< surface value at the full allocation
};

} // namespace poco::wl
