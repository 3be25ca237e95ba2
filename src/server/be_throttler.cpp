#include "server/be_throttler.hpp"

#include <algorithm>

namespace poco::server
{

const char*
throttleOrderName(ThrottleOrder order)
{
    switch (order) {
      case ThrottleOrder::FreqThenDuty: return "freq-then-duty";
      case ThrottleOrder::DutyThenFreq: return "duty-then-freq";
      case ThrottleOrder::FreqOnly:     return "freq-only";
      case ThrottleOrder::DutyOnly:     return "duty-only";
    }
    return "?";
}

BeThrottler::BeThrottler(ThrottlerConfig config) : config_(config) {}

sim::Allocation
BeThrottler::decide(const ColocatedServer& server, std::size_t slot,
                    Watts measured) const
{
    sim::Allocation alloc = server.beAllocAt(slot);
    if (alloc.empty())
        return alloc;

    const sim::ServerSpec& spec = server.spec();
    const Watts cap = server.powerCap();

    const bool can_lower_freq =
        alloc.freq > spec.freqMin + GHz{1e-9};
    const bool can_lower_duty = alloc.dutyCycle > kMinDutyCycle;
    const bool can_raise_freq =
        alloc.freq < spec.freqMax - GHz{1e-9};
    const bool can_raise_duty = alloc.dutyCycle < 1.0;

    auto lower_freq = [&] { alloc.freq = spec.stepDown(alloc.freq); };
    auto lower_duty = [&] {
        alloc.dutyCycle =
            std::max(kMinDutyCycle, alloc.dutyCycle - kDutyStep);
    };
    auto raise_freq = [&] { alloc.freq = spec.stepUp(alloc.freq); };
    auto raise_duty = [&] {
        alloc.dutyCycle = std::min(1.0, alloc.dutyCycle + kDutyStep);
    };

    if (measured > cap) {
        switch (config_.order) {
          case ThrottleOrder::FreqThenDuty:
            if (can_lower_freq)
                lower_freq();
            else if (can_lower_duty)
                lower_duty();
            break;
          case ThrottleOrder::DutyThenFreq:
            if (can_lower_duty)
                lower_duty();
            else if (can_lower_freq)
                lower_freq();
            break;
          case ThrottleOrder::FreqOnly:
            if (can_lower_freq)
                lower_freq();
            break;
          case ThrottleOrder::DutyOnly:
            if (can_lower_duty)
                lower_duty();
            break;
        }
    } else if (measured < cap - kReleaseMargin) {
        // Release in the reverse order of throttling.
        switch (config_.order) {
          case ThrottleOrder::FreqThenDuty:
            if (can_raise_duty)
                raise_duty();
            else if (can_raise_freq)
                raise_freq();
            break;
          case ThrottleOrder::DutyThenFreq:
            if (can_raise_freq)
                raise_freq();
            else if (can_raise_duty)
                raise_duty();
            break;
          case ThrottleOrder::FreqOnly:
            if (can_raise_freq)
                raise_freq();
            break;
          case ThrottleOrder::DutyOnly:
            if (can_raise_duty)
                raise_duty();
            break;
        }
    }
    return alloc;
}

} // namespace poco::server
