/**
 * @file
 * Best-effort power throttler (Section IV-C "Secondary application").
 *
 * Every 100 ms the server manager reads the power meter and, when the
 * draw exceeds the provisioned capacity, throttles the best-effort
 * application: first by stepping its per-core frequency down (the
 * fine-grained knob), then by limiting its CPU execution time (duty
 * cycle) once the frequency floor is reached. When comfortably under
 * the cap it releases the throttle in the reverse order.
 */

#pragma once

#include "server/colocated_server.hpp"
#include "sim/allocation.hpp"
#include "util/units.hpp"

namespace poco::server
{

/** Which knob the throttler reaches for first (ablation study). */
enum class ThrottleOrder
{
    FreqThenDuty, ///< the paper's policy: DVFS first, duty second
    DutyThenFreq, ///< duty-cycle first, DVFS second
    FreqOnly,     ///< DVFS only; may fail to reach the cap
    DutyOnly,     ///< duty-cycle only
};

const char* throttleOrderName(ThrottleOrder order);

/** Meter averaging window (paper: 100 ms sampling). */
constexpr SimTime kThrottleWindow = 100 * kMillisecond;
/** Release hysteresis: unthrottle only below cap - margin. */
constexpr Watts kReleaseMargin{3.0};
/** Duty-cycle floor so the BE app keeps making some progress. */
constexpr double kMinDutyCycle = 0.05;
/** Duty-cycle adjustment per throttle step. */
constexpr double kDutyStep = 0.05;

/** Throttler tuning. */
struct ThrottlerConfig
{
    /** Knob ordering; the paper uses frequency-then-duty. */
    ThrottleOrder order = ThrottleOrder::FreqThenDuty;
};

/** Reactive power-cap enforcement for the secondary application. */
class BeThrottler
{
  public:
    explicit BeThrottler(ThrottlerConfig config = {});

    const ThrottlerConfig& config() const { return config_; }

    /**
     * One control step for secondary slot @p slot against the power
     * reading @p measured: return the allocation to install (same
     * cores/ways, adjusted frequency/duty). With spatial sharing every
     * co-runner is throttled in lockstep. The server manager passes
     * its meter's trailing kThrottleWindow average, or the fault
     * injector's falsified reading of it. A non-finite reading
     * satisfies neither comparison, so the throttler holds its
     * current allocation.
     */
    sim::Allocation decide(const ColocatedServer& server,
                           std::size_t slot, Watts measured) const;

  private:
    ThrottlerConfig config_;
};

} // namespace poco::server
