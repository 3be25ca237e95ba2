#include "ctrl/event_log.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "fault/fault_plan.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace poco::ctrl
{

namespace
{

bool
eventLess(const ControlEvent& a, const ControlEvent& b)
{
    return std::tie(a.tick, a.kind, a.subject, a.value) <
           std::tie(b.tick, b.kind, b.subject, b.value);
}

/** Exponential inter-arrival in ticks for @p rate events/second. */
SimTime
nextGap(Rng& rng, double rate)
{
    // Inverse-CDF sampling; floored at one tick so the log stays
    // strictly advancing even at silly rates.
    const double u = rng.uniform();
    const double seconds = -std::log(1.0 - u) / rate;
    const double ticks = seconds * static_cast<double>(kSecond);
    return std::max<SimTime>(1, static_cast<SimTime>(ticks));
}

} // namespace

const char*
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::LoadShift:     return "load-shift";
      case EventKind::BeArrive:      return "be-arrive";
      case EventKind::BeDepart:      return "be-depart";
      case EventKind::ServerCrash:   return "server-crash";
      case EventKind::ServerRecover: return "server-recover";
      case EventKind::BudgetChange:  return "budget-change";
    }
    return "?";
}

EventLog
EventLog::fromEvents(std::vector<ControlEvent> events)
{
    for (const ControlEvent& e : events)
        POCO_REQUIRE(e.tick >= 0, "event ticks must be non-negative");
    std::sort(events.begin(), events.end(), eventLess);
    EventLog log;
    log.events_ = std::move(events);
    return log;
}

EventLog
EventLog::merged(const EventLog& a, const EventLog& b)
{
    std::vector<ControlEvent> events;
    events.reserve(a.size() + b.size());
    events.insert(events.end(), a.events().begin(), a.events().end());
    events.insert(events.end(), b.events().begin(), b.events().end());
    return fromEvents(std::move(events));
}

EventLog
EventLog::generate(const EventLogConfig& config)
{
    POCO_REQUIRE(config.horizon > 0, "horizon must be positive");
    POCO_REQUIRE(config.servers >= 1, "need at least one server");
    POCO_REQUIRE(config.bePool >= 1, "need at least one BE");

    const Rng root(config.seed);
    std::vector<ControlEvent> events;
    // Expected event count: horizon seconds times the summed rates
    // (crashes emit a recover each). The generators below append at
    // most ~that many entries, so one reservation bounds the queue.
    const double per_second =
        config.loadShiftRate + config.beChurnRate +
        2.0 * config.crashRate + config.budgetChangeRate;
    events.reserve(static_cast<std::size_t>(
                       toSeconds(config.horizon) * per_second * 1.5) +
                   16);

    // Each kind draws from its own split stream (keyed by the kind's
    // ordinal), so one kind's traffic never shifts another's ticks —
    // the FaultPlan (kind, server) pattern, collapsed to per-kind
    // because subjects here are drawn inside the stream.
    auto stream = [&root](EventKind kind) {
        return root.split(
            0x10001u + static_cast<std::uint64_t>(kind));
    };

    if (config.loadShiftRate > 0.0) {
        Rng rng = stream(EventKind::LoadShift);
        SimTime t = nextGap(rng, config.loadShiftRate);
        while (t < config.horizon) {
            ControlEvent e;
            e.tick = t;
            e.kind = EventKind::LoadShift;
            // Mostly single-server shifts; 1-in-8 moves every server
            // (the diurnal swing), exercising the full-refresh rung.
            e.subject = rng.bernoulli(0.125)
                            ? -1
                            : rng.uniformInt(0, config.servers - 1);
            e.value = rng.uniform(0.1, 0.95);
            events.push_back(e);
            t += nextGap(rng, config.loadShiftRate);
        }
    }

    if (config.beChurnRate > 0.0) {
        Rng rng = stream(EventKind::BeArrive);
        SimTime t = nextGap(rng, config.beChurnRate);
        while (t < config.horizon) {
            ControlEvent e;
            e.tick = t;
            // Alternate-ish churn: arrivals twice as likely as
            // departures keeps the cluster busy.
            e.kind = rng.bernoulli(2.0 / 3.0) ? EventKind::BeArrive
                                              : EventKind::BeDepart;
            e.subject = e.kind == EventKind::BeDepart
                            ? rng.uniformInt(0, config.bePool - 1)
                            : -1;
            events.push_back(e);
            t += nextGap(rng, config.beChurnRate);
        }
    }

    if (config.crashRate > 0.0) {
        Rng rng = stream(EventKind::ServerCrash);
        SimTime t = nextGap(rng, config.crashRate);
        while (t < config.horizon) {
            const int server =
                rng.uniformInt(0, config.servers - 1);
            ControlEvent crash;
            crash.tick = t;
            crash.kind = EventKind::ServerCrash;
            crash.subject = server;
            events.push_back(crash);

            const double mean =
                static_cast<double>(config.meanOutage);
            const double u = rng.uniform();
            const SimTime outage = std::max<SimTime>(
                1,
                static_cast<SimTime>(-std::log(1.0 - u) * mean));
            const SimTime back = t + outage;
            if (back < config.horizon) {
                ControlEvent recover;
                recover.tick = back;
                recover.kind = EventKind::ServerRecover;
                recover.subject = server;
                events.push_back(recover);
            }
            t += nextGap(rng, config.crashRate);
        }
    }

    if (config.budgetChangeRate > 0.0) {
        Rng rng = stream(EventKind::BudgetChange);
        SimTime t = nextGap(rng, config.budgetChangeRate);
        while (t < config.horizon) {
            ControlEvent e;
            e.tick = t;
            e.kind = EventKind::BudgetChange;
            e.value = rng.uniform(0.6, 1.2);
            events.push_back(e);
            t += nextGap(rng, config.budgetChangeRate);
        }
    }

    return fromEvents(std::move(events));
}

SimTime
EventLog::horizon() const
{
    return events_.empty() ? 0 : events_.back().tick;
}

std::uint64_t
EventLog::fingerprint() const
{
    std::uint64_t h = fnv::kOffset;
    for (const ControlEvent& e : events_) {
        fnv::mixWord(h, static_cast<std::uint64_t>(e.tick));
        fnv::mixWord(h, static_cast<std::uint64_t>(e.kind));
        fnv::mixWord(h, static_cast<std::uint64_t>(
            static_cast<std::int64_t>(e.subject)));
        fnv::mixDouble(h, e.value);
    }
    return h;
}

namespace
{

/** Volley spacing for an EventBurst window (magnitude events/s). */
SimTime
burstGap(const fault::FaultWindow& w)
{
    const double rate = w.magnitude > 0.0 ? w.magnitude : 50.0;
    return std::max<SimTime>(
        1, static_cast<SimTime>(static_cast<double>(kSecond) / rate));
}

} // namespace

EventLog
eventsFromFaultPlan(const fault::FaultPlan& plan, int servers)
{
    POCO_REQUIRE(servers >= 1, "need at least one server");
    std::vector<ControlEvent> events;
    // Exact capacity: crash windows lower to one pair per target,
    // burst windows to duration / gap volley events.
    std::size_t count = 0;
    for (const fault::FaultWindow& w : plan.windows()) {
        if (w.kind == fault::FaultKind::ServerCrash)
            count += 2 * static_cast<std::size_t>(
                             w.server < 0 ? servers : 1);
        else if (w.kind == fault::FaultKind::EventBurst)
            count += static_cast<std::size_t>(
                         (w.duration() - 1) / burstGap(w)) +
                     1;
    }
    events.reserve(count);

    for (const fault::FaultWindow& w : plan.windows()) {
        if (w.kind == fault::FaultKind::ServerCrash) {
            const int first = w.server < 0 ? 0 : w.server;
            const int last = w.server < 0 ? servers - 1 : w.server;
            for (int s = first; s <= last; ++s) {
                ControlEvent crash;
                crash.tick = w.start;
                crash.kind = EventKind::ServerCrash;
                crash.subject = s;
                events.push_back(crash);
                ControlEvent recover;
                recover.tick = w.end;
                recover.kind = EventKind::ServerRecover;
                recover.subject = s;
                events.push_back(recover);
            }
        } else if (w.kind == fault::FaultKind::EventBurst) {
            // A storm of single-server LoadShifts. Loads come from a
            // stream keyed by the window's own coordinates, so a
            // burst's volley is independent of every other window
            // and of the plan it rides in.
            const SimTime gap = burstGap(w);
            Rng rng(static_cast<std::uint64_t>(w.start) *
                        0x9e3779b97f4a7c15ULL ^
                    static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(w.server) + 257));
            int next_target = w.server < 0 ? 0 : w.server;
            for (SimTime t = w.start; t < w.end; t += gap) {
                ControlEvent shift;
                shift.tick = t;
                shift.kind = EventKind::LoadShift;
                shift.subject = next_target % servers;
                shift.value = rng.uniform(0.1, 0.95);
                events.push_back(shift);
                if (w.server < 0)
                    ++next_target; // broadcast: round-robin targets
            }
        }
        // MasterKill / MasterPause stay with the MasterGroup; the
        // remaining kinds are server-level injector business.
    }
    return EventLog::fromEvents(std::move(events));
}

} // namespace poco::ctrl
