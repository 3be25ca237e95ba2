/**
 * @file
 * The control plane's input: a totally-ordered log of cluster events.
 *
 * The streaming master (control_plane.hpp) does not observe wall
 * clock. Everything that happens to a cluster — load moving, BE jobs
 * arriving and leaving, servers crashing and coming back, the power
 * budget being re-negotiated — is a ControlEvent with a *logical*
 * timestamp, and an EventLog is the sorted, immutable sequence of
 * them. Replaying the same log therefore reproduces the same run
 * bit-for-bit: seeded generation (Rng::split per event kind, the
 * FaultPlan pattern) stands in for live arrivals, and tests diff
 * rollup fingerprints across replays and thread counts.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace poco::fault
{
class FaultPlan;
}

namespace poco::ctrl
{

/** What happened (the control plane's whole input vocabulary). */
enum class EventKind
{
    LoadShift,     ///< server `subject` now serves LC load `value`
                   ///< (subject -1: every server shifts together)
    BeArrive,      ///< next pooled BE candidate joins the cluster
    BeDepart,      ///< active BE `subject` leaves the cluster
    ServerCrash,   ///< server `subject` stops heartbeating
    ServerRecover, ///< server `subject` resumes heartbeating
    BudgetChange,  ///< fleet budget rescaled by factor `value`
};

const char* eventKindName(EventKind kind);

/** One event at one logical tick. */
struct ControlEvent
{
    SimTime tick = 0;
    EventKind kind = EventKind::LoadShift;
    /** Server index (crash/recover/load) or BE index (depart). */
    int subject = -1;
    /** Load fraction or budget scale, kind-dependent. */
    double value = 0.0;
};

/** Seeded arrival rates for EventLog::generate. */
struct EventLogConfig
{
    /** Log length in logical ticks; no event lands at or past it. */
    SimTime horizon = 60 * kSecond;
    /** Servers events may target. */
    int servers = 1;
    /** BE candidates the arrive/depart churn draws from. */
    int bePool = 1;

    /** Expected events per simulated second, per kind. */
    double loadShiftRate = 0.5;
    double beChurnRate = 0.05;  ///< arrivals (departs match ~half)
    double crashRate = 0.02;    ///< crashes (each gets a recover)
    double budgetChangeRate = 0.01;

    /** Mean crash outage length (recover follows the crash). */
    SimTime meanOutage = 5 * kSecond;

    /** Root seed; every stream is split from it per kind. */
    std::uint64_t seed = 0;
};

/**
 * Immutable, totally-ordered event sequence. Ordering is
 * (tick, kind, subject, value) so two logs built from the same
 * events compare equal element-wise regardless of insertion order.
 */
class EventLog
{
  public:
    EventLog() = default;

    /** Wrap explicit events (tests, hand-crafted scenarios). */
    static EventLog fromEvents(std::vector<ControlEvent> events);

    /**
     * Deterministically expand @p config into a log. Per-kind streams
     * come from Rng::split keyed by the kind, so adding one kind's
     * traffic never perturbs another's arrival ticks.
     */
    static EventLog generate(const EventLogConfig& config);

    /**
     * The union of two logs, re-sorted into total order. Because
     * ordering is (tick, kind, subject, value), merging is
     * commutative: merged(a, b) == merged(b, a) element-wise. This
     * is how scenario generators compose independently generated
     * streams (BE arrival queues, load-shift markers) into the one
     * log a control plane replays.
     */
    static EventLog merged(const EventLog& a, const EventLog& b);

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }
    const std::vector<ControlEvent>& events() const { return events_; }

    /** Last event's tick (0 for an empty log). */
    SimTime horizon() const;

    /** FNV-1a over every event's fields (replay identity checks). */
    [[nodiscard]] std::uint64_t fingerprint() const;

  private:
    std::vector<ControlEvent> events_;
};

/**
 * The fault-injection seam: lower a FaultPlan's ServerCrash windows
 * into ServerCrash / ServerRecover event pairs, and its EventBurst
 * windows into dense LoadShift volleys (`magnitude` events/second,
 * loads drawn from a split stream keyed by the window, broadcast
 * windows round-robining the servers), so a schedule written for
 * the batch evaluators drives the streaming master unchanged.
 * Broadcast crash windows (server == -1) expand to one pair per
 * server. MasterKill / MasterPause windows are NOT lowered — they
 * target the control plane itself and are consumed by MasterGroup.
 */
EventLog eventsFromFaultPlan(const fault::FaultPlan& plan,
                             int servers);

} // namespace poco::ctrl
