#include "fault/fault_injector.hpp"

#include <algorithm>
#include <limits>

#include "util/check.hpp"

namespace poco::fault
{

FaultInjector::FaultInjector(FaultPlan plan,
                             const sim::PowerMeter* meter)
    : plan_(std::move(plan)), meter_(meter)
{
    const std::vector<FaultWindow>& windows = plan_.windows();
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const FaultWindow& w = windows[i];
        POCO_REQUIRE(w.kind != FaultKind::ServerCrash,
                     "crash windows are consumed by the cluster "
                     "layer, not a server-level injector");
        POCO_REQUIRE(w.kind != FaultKind::MasterKill &&
                         w.kind != FaultKind::MasterPause &&
                         w.kind != FaultKind::EventBurst,
                     "control-plane windows are consumed by the "
                     "ctrl layer (MasterGroup / eventsFromFaultPlan)"
                     ", not a server-level injector");
        POCO_REQUIRE(w.start >= 0, "fault window starts in the past");
        edges_.push_back(Edge{w.start, i, true});
        edges_.push_back(Edge{w.end, i, false});
    }
    // Stable: same-time edges keep plan order, start before end.
    std::stable_sort(edges_.begin(), edges_.end(),
                     [](const Edge& a, const Edge& b) {
                         return a.when < b.when;
                     });
}

void
FaultInjector::advanceTo(SimTime now)
{
    for (; next_edge_ < edges_.size() && edges_[next_edge_].when <= now;
         ++next_edge_) {
        const Edge& edge = edges_[next_edge_];
        const FaultWindow& window = plan_.windows()[edge.window];
        if (edge.opens)
            activate(window);
        else
            deactivate(window);
    }
}

void
FaultInjector::activate(const FaultWindow& window)
{
    active_.push_back(&window);
    if (window.kind == FaultKind::SensorStuck &&
        stuck_window_ == nullptr) {
        stuck_window_ = &window;
        // Freeze at the value the sensor held when the fault hit;
        // fall back to freezing the first read if no meter is wired.
        if (meter_ != nullptr) {
            stuck_value_ = meter_->instantaneous();
            stuck_captured_ = true;
        } else {
            stuck_captured_ = false;
        }
    }
}

void
FaultInjector::deactivate(const FaultWindow& window)
{
    active_.erase(std::remove(active_.begin(), active_.end(), &window),
                  active_.end());
    if (stuck_window_ == &window) {
        stuck_window_ = nullptr;
        stuck_captured_ = false;
    }
}

const FaultWindow*
FaultInjector::active(FaultKind kind, SimTime now) const
{
    for (const FaultWindow* w : active_)
        if (w->kind == kind && w->covers(now))
            return w;
    return nullptr;
}

Watts
FaultInjector::readPower(const sim::PowerMeter& meter, SimTime now,
                         SimTime window)
{
    const Watts truth = meter.average(now, window);

    if (active(FaultKind::SensorDropout, now) != nullptr) {
        ++stats_.faultedReads;
        return Watts{std::numeric_limits<double>::quiet_NaN()};
    }
    if (const FaultWindow* stuck = active(FaultKind::SensorStuck, now);
        stuck != nullptr) {
        ++stats_.faultedReads;
        if (!stuck_captured_) {
            stuck_value_ = truth;
            stuck_captured_ = true;
        }
        last_delivered_ = stuck_value_;
        delivered_any_ = true;
        return stuck_value_;
    }
    if (active(FaultKind::TelemetryStale, now) != nullptr &&
        delivered_any_) {
        ++stats_.faultedReads;
        ++stats_.staleReads;
        return last_delivered_;
    }
    if (const FaultWindow* bias = active(FaultKind::SensorBias, now);
        bias != nullptr) {
        ++stats_.faultedReads;
        const Watts biased = truth * (1.0 + bias->magnitude);
        last_delivered_ = biased;
        delivered_any_ = true;
        return biased;
    }
    last_delivered_ = truth;
    delivered_any_ = true;
    return truth;
}

sim::Allocation
FaultInjector::apply(const sim::Allocation& current,
                     const sim::Allocation& next, SimTime now)
{
    if (active(FaultKind::ActuatorStuck, now) == nullptr)
        return next;
    sim::Allocation landed = next;
    landed.freq = current.freq;
    landed.dutyCycle = current.dutyCycle;
    if (landed.freq != next.freq ||
        landed.dutyCycle != next.dutyCycle)
        ++stats_.suppressedCommands;
    return landed;
}

double
FaultInjector::loadFactor(SimTime now) const
{
    double factor = 1.0;
    for (const FaultWindow* w : active_)
        if (w->kind == FaultKind::LoadSpike && w->covers(now))
            factor *= 1.0 + w->magnitude;
    return factor;
}

} // namespace poco::fault
