#include "sim/power_meter.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace poco::sim
{

PowerMeter::PowerMeter(SimTime retention) : retention_(retention)
{
    POCO_REQUIRE(retention > 0, "retention must be positive");
    history_.push_back(Segment{0, Watts{}});
}

void
PowerMeter::setPower(SimTime when, Watts watts)
{
    POCO_REQUIRE(when >= last_change_,
                 "power meter updates must be time-ordered");
    POCO_REQUIRE(std::isfinite(watts.value()),
                 "power must be finite (got NaN or infinity)");
    POCO_REQUIRE(watts >= Watts{}, "power must be non-negative");
    if (watts == current_)
        return;
    history_.push_back(Segment{when, watts});
    current_ = watts;
    last_change_ = when;
    prune(when);
}

void
PowerMeter::prune(SimTime now)
{
    // Drop segments that end at or before (now - retention): no
    // window query reads them, and the history stays bounded. The
    // segment covering (now - retention) stays, so a window of
    // exactly the retention is exact.
    const SimTime horizon = now - retention_;
    while (history_.size() > 1 && history_[1].start <= horizon)
        history_.pop_front();
}

Watts
PowerMeter::average(SimTime now, SimTime window) const
{
    POCO_REQUIRE(window > 0, "window must be positive");
    POCO_REQUIRE(window <= retention_,
                 "window must not exceed the meter's retention");
    POCO_REQUIRE(now >= last_change_,
                 "query time precedes last recorded change");
    const SimTime begin = std::max<SimTime>(0, now - window);
    if (now == begin)
        return current_;

    // Sum from the newest segment that starts at or before begin:
    // every older one ends by begin and would add nothing.
    std::size_t first = history_.size() - 1;
    while (first > 0 && history_[first].start > begin)
        --first;
    Joules joules;
    for (std::size_t i = first; i < history_.size(); ++i) {
        const SimTime seg_start = history_[i].start;
        const SimTime seg_end =
            (i + 1 < history_.size()) ? history_[i + 1].start : now;
        const SimTime lo = std::max(seg_start, begin);
        const SimTime hi = std::min(seg_end, now);
        if (hi > lo)
            joules += history_[i].watts * simSeconds(hi - lo);
    }
    return joules / simSeconds(now - begin);
}

} // namespace poco::sim
