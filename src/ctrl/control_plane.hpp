/**
 * @file
 * The streaming master: consume an EventLog, react incrementally.
 *
 * ControlPlane replaces the batch "evaluate the whole fleet every
 * epoch" loop with an online one. It owns a HeartbeatTracker (who is
 * alive, who holds budget) and an IncrementalPlacer (the Cached /
 * Repair / WarmLp / cold ladder), and walks a totally-ordered
 * EventLog tick by tick:
 *
 *   1. advance the heartbeat tracker to the event's tick — missed
 *      beats may demote servers (Suspect, then Dead) or re-register
 *      recovered ones, changing the placement topology;
 *   2. apply the event to the modeled state (per-server LC load,
 *      active BE set, budget scale, crash flags);
 *   3. if the performance matrix changed, re-place with the cheapest
 *      sound delta: one column for a single-server LoadShift, a
 *      full same-shape refresh for a BudgetChange, a shape change
 *      whenever the BE set or the live server set moved.
 *
 * The per-event state machine lives in ReplayEngine so that it can
 * be driven one event at a time, checkpointed (CtrlCheckpoint), and
 * restored — the seams ctrl::MasterGroup builds failover on.
 * ControlPlane::replay() is the single-master wrapper: fresh engine,
 * whole log, one rollup.
 *
 * Backpressure (DESIGN.md §15): with backpressure enabled the
 * engine models the master's re-solve budget in logical time — an
 * admitted re-solve occupies the master for resolveCost ticks, and
 * admitted-but-unfinished re-solves queue. When an event finds the
 * queue at the admission window, the engine sheds: the ladder is
 * skipped, the IncrementalPlacer hands back the Conservative
 * identity assignment, and the event's state change (the latest
 * LoadShift level, BE churn, budget scale) is simply folded into
 * the modeled state so the next admitted re-solve coalesces every
 * superseded value (LoadShift-last-wins) under one Shape re-sync.
 * Shed decisions are recorded on the EventRecord and mixed into the
 * rollup fingerprint — they are a pure function of (log, config),
 * never of wall clock, so replay stays bit-identical for any
 * thread count.
 *
 * Replay contract: replay() resets every piece of state (fresh
 * tracker, fresh placer with an empty memo), so the same log
 * produces a bit-identical CtrlRollup fingerprint on every call and
 * for every thread count — the parallel kernels underneath (matrix cell
 * builds, LP pivot elimination) are bit-identical by construction,
 * and nothing reads the wall clock.
 *
 * Cell cache: the engine keeps every (BE, server) cell it evaluated
 * resident, with the load it was evaluated at, and re-evaluates a
 * cell only when that server's load changed. A single-server
 * LoadShift costs one column of cell calls, a BudgetChange none (the
 * matrix entry is always raw * budgetScale), a BeArrive one row. The
 * cache is an accelerator like the placer's engines: CtrlCheckpoint
 * does not carry it, and a restored engine starts empty.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/incremental.hpp"
#include "ctrl/event_log.hpp"
#include "ctrl/heartbeat.hpp"
#include "util/outcome.hpp"
#include "util/units.hpp"

namespace poco::sim
{
class TelemetryAggregator;
}

namespace poco::ctrl
{

/**
 * Cell model: estimated BE throughput of pool candidate @p be
 * colocated with server @p server at LC load fraction @p load. Must
 * be a pure deterministic function of its arguments: ReplayEngine
 * keeps each (be, server) value resident and calls the model again
 * only when that server's load changed, and a restored engine
 * re-evaluates from scratch. Both give the same matrix only because
 * the model is pure.
 */
using CellModel = std::function<double(
    std::size_t be, std::size_t server, double load)>;

/**
 * Bounded event-admission window (logical-time backpressure).
 * Costs are logical ticks, not wall clock, so shed decisions are
 * deterministic and replayable.
 */
struct BackpressureConfig
{
    /** Off by default: every matrix change is re-solved exactly. */
    bool enabled = false;
    /**
     * Maximum admitted-but-unfinished re-solves. An event whose
     * re-solve would be the window+1'th in flight is shed to the
     * Conservative tier instead of queueing.
     */
    std::size_t window = 8;
    /** Logical ticks one admitted ladder re-solve occupies. */
    SimTime resolveCost = 100 * kMillisecond;
};

/**
 * Cluster shape and initial conditions for a control-plane run.
 * Range-checked in one place, validateControlPlaneConfig.
 */
struct ControlPlaneConfig
{
    /** Servers under management (heartbeat-tracked, columns). */
    std::size_t servers = 4;
    /** BE candidate pool BeArrive draws from (rows). */
    std::size_t bePool = 4;
    /** Candidates active at tick 0 (clipped to bePool by
     *  CtrlCheckpoint::initial). */
    std::size_t initialBe = 4;
    /** LC load fraction every server starts at. */
    double initialLoad = 0.5;
    /** Power grant issued per live server. */
    Watts perServerBudget{100.0};
    /** Liveness cadence and ladder thresholds. */
    HeartbeatConfig heartbeat;
    /** Event-admission window; disabled unless enabled is set. */
    BackpressureConfig backpressure;
    /**
     * Bench baseline: bypass the IncrementalPlacer (every rung and
     * its memo); every re-place is a cold placeWithFallback. Results
     * (assignments, objectives) stay field-identical when optima are
     * unique — only tiers, attempt counts, and wall-clock move.
     */
    bool forceCold = false;
};

/**
 * The one range check every entry point runs (ControlPlane,
 * MasterGroup, ReplayEngine): servers >= 1, bePool >= 1, initialLoad
 * in (0, 1], and with backpressure on, window >= 1 and a positive
 * resolveCost. Throws FatalError otherwise. The heartbeat fields are
 * HeartbeatTracker's to check; initialBe is clipped, never rejected.
 */
void validateControlPlaneConfig(const ControlPlaneConfig& config);

/** What one event did to the system (one rollup line per event). */
struct EventRecord
{
    SimTime tick = 0;
    EventKind kind = EventKind::LoadShift;
    int subject = -1;
    /** Solver rung that re-placed, or None when no solve was due. */
    SolverTier tier = SolverTier::None;
    int attempts = 0;
    /** Backpressure shed this event's re-solve (tier Conservative). */
    bool shed = false;
    /** Total matrix value of the chosen assignment (row order). */
    double objective = 0.0;
    /** FNV-1a over the assignment vector. */
    std::uint64_t assignmentFingerprint = 0;
    std::uint32_t activeBe = 0;
    std::uint32_t placeableServers = 0;
};

/** The replay's complete, fingerprintable result. */
struct CtrlRollup
{
    std::vector<EventRecord> records;
    /** Events that triggered a re-placement (sheds included). */
    std::size_t resolves = 0;
    /** Re-solves shed to the Conservative tier (backpressure). */
    std::size_t sheds = 0;
    /** Superseded events folded into a later exact re-sync. */
    std::size_t coalesced = 0;
    /** High-water mark of the admitted re-solve queue. */
    std::size_t maxQueueDepth = 0;
    /** Incremental-ladder rung counters. */
    cluster::IncrementalStats solver;
    /** Heartbeat/liveness counters. */
    HeartbeatStats heartbeat;
    /** Undistributed budget at end of log (dead servers' grants). */
    Watts budgetPool;
    /** Tracker state fingerprint at end of log. */
    std::uint64_t livenessFingerprint = 0;
    /**
     * FNV-1a over every record field plus the liveness fingerprint
     * and final budget. No wall-clock input — the replay identity
     * tests compare this across thread counts and repeated replays.
     */
    std::uint64_t fingerprint = 0;
    /**
     * Like fingerprint, but over result semantics only: tiers and
     * attempt counters are excluded. A failover catch-up re-solves
     * cold where the uninterrupted oracle ran warm, so the two runs
     * legitimately differ in tier counters while every shed
     * decision, liveness bit, and milliwatt of budget must agree —
     * this is the fingerprint the chaos invariants compare against
     * the oracle. Precondition for the assignments and objectives,
     * and so for this fingerprint, to agree too: every optimum is
     * unique. When several assignments tie (repeated platforms and
     * apps), the ladder's pick depends on solver history a restored
     * master does not have, so it may choose another optimum of
     * equal value, whose objective (a sum in row order) may then
     * differ in its last bit.
     */
    std::uint64_t semanticFingerprint = 0;
};

/**
 * A master's cheap durable state after applying events [0, lsn):
 * the heartbeat ledger (checkpoint-by-copy, see heartbeat.hpp), the
 * modeled cluster state, the partial rollup, and the backpressure
 * queue. This is also the ReplayEngine's live state — the engine
 * holds exactly one CtrlCheckpoint and no other durable member, so
 * checkpoint() is a copy and restoring is construction from one.
 * Deliberately NOT part of it: the IncrementalPlacer's engines and
 * memo, and the engine's cell cache — pure accelerators a restored
 * master re-arms from scratch. Exactness of every rung and purity of
 * the CellModel keep every objective equal in value; assignments and
 * objectives are bit-identical when every optimum is unique (on ties
 * a cold placer may pick another optimum, whose row-order sum may
 * differ in the last bit), and tiers differ.
 */
struct CtrlCheckpoint
{
    explicit CtrlCheckpoint(HeartbeatTracker tracker_state)
        : tracker(std::move(tracker_state))
    {}

    /**
     * The LSN-0 state for @p config: every server registered,
     * candidates [0, min(initialBe, bePool)) active — the one place
     * initialBe is clipped — and every load at initialLoad. The
     * engine that restores it validates the config.
     */
    static CtrlCheckpoint initial(const ControlPlaneConfig& config);

    /** Events [0, lsn) are reflected in this state. */
    std::size_t lsn = 0;
    /** Tick of the last applied event (monotonic resume point). */
    SimTime tick = 0;
    HeartbeatTracker tracker;
    std::vector<char> active;
    std::vector<std::size_t> activeList;
    std::vector<double> load;
    double budgetScale = 1.0;
    std::vector<std::size_t> prevAlive;
    /** Partial rollup (records for events [0, lsn) + accumulators). */
    std::vector<EventRecord> records;
    std::size_t resolves = 0;
    std::size_t sheds = 0;
    std::size_t coalesced = 0;
    std::size_t maxQueueDepth = 0;
    SolverTier worst = SolverTier::None;
    int attempts = 0;
    Degradation degradation;
    /** Outstanding re-solve completion ticks (ascending). */
    std::vector<SimTime> pending;
    /** Sheds since the last exact solve (re-sync debt). */
    std::size_t dirtySheds = 0;

    /** FNV-1a over every field; restore round-trips must preserve it. */
    [[nodiscard]] std::uint64_t fingerprint() const;
};

/**
 * The per-event replay state machine. Apply events one at a time,
 * checkpoint() at any LSN boundary, restore from a checkpoint and
 * keep applying, finish() exactly once for the rollup. Its durable
 * state is one CtrlCheckpoint value: apply() and finish() read and
 * write it, checkpoint() copies it, and a fresh engine is a restore
 * from CtrlCheckpoint::initial. Not copyable or movable (the
 * placer's memo holds a lock); MasterGroup heap-allocates one per
 * live master.
 */
class ReplayEngine
{
  public:
    /**
     * Fresh engine: restored from CtrlCheckpoint::initial(config).
     *
     * @param telemetry Optional sink: each re-placement appends one
     *        delta sample per placed server (appendDelta), and
     *        finish() seals one epoch. It must cover config.servers
     *        slots and is the caller's to drain.
     */
    ReplayEngine(const CellModel& cells,
                 const ControlPlaneConfig& config,
                 cluster::SolverContext context,
                 sim::TelemetryAggregator* telemetry = nullptr);

    /**
     * Restored engine: state as of @p checkpoint (solver and cell
     * cache cold). Throws FatalError when @p config fails
     * validateControlPlaneConfig or the checkpoint was taken under
     * another shape (servers, bePool).
     */
    ReplayEngine(const CellModel& cells,
                 const ControlPlaneConfig& config,
                 cluster::SolverContext context,
                 CtrlCheckpoint checkpoint,
                 sim::TelemetryAggregator* telemetry = nullptr);

    ReplayEngine(const ReplayEngine&) = delete;
    ReplayEngine& operator=(const ReplayEngine&) = delete;

    /** Apply the next event. Ticks must not go backwards. */
    void apply(const ControlEvent& event);

    /** Events applied so far — the engine's LSN. */
    std::size_t applied() const { return state_.lsn; }

    /** A copy of the durable state (see CtrlCheckpoint). */
    CtrlCheckpoint checkpoint() const;

    /** Pre-size the record vector (log length known up front). */
    void reserveRecords(std::size_t events);

    /**
     * Seal the run: telemetry epoch, budget-conservation assert,
     * fingerprints. Call exactly once; the engine is spent after.
     * The outcome's tier is the worst rung any event needed, its
     * attempts the total across events, its degradation the union.
     */
    Outcome<CtrlRollup> finish(SimTime horizon);

  private:
    /** Owned copies: a caller may hand us temporaries and walk away
     *  (the engine can outlive any one call site across failovers). */
    CellModel cells_;
    ControlPlaneConfig config_;
    cluster::SolverContext context_;
    sim::TelemetryAggregator* telemetry_;
    cluster::IncrementalPlacer placer_;
    /** Everything durable; nothing else survives a failover. */
    CtrlCheckpoint state_;
    /**
     * Resident cell cache, bePool x servers row-major: the raw cell
     * value and the load it was computed at (NaN: never computed).
     * Not checkpointed — a restored engine starts empty.
     */
    std::vector<double> cell_raw_;
    std::vector<double> cell_load_;
    bool finished_ = false;
};

/**
 * Event-driven online master for one cluster. Construct once with
 * the model and shape; replay() any number of logs (each replay is
 * independent and internally stateless-from-scratch).
 */
class ControlPlane
{
  public:
    ControlPlane(CellModel cells, ControlPlaneConfig config,
                 cluster::SolverContext context = {});

    /**
     * Run the log from a clean slate. The outcome's tier is the
     * worst rung any event needed (worseTier fold), its attempts the
     * total across events, its degradation the union.
     *
     * Each replay builds a fresh engine, so its placer starts with
     * an empty memo: a memo shared across replays would make a
     * second replay hit where the first missed, changing tier
     * counters and breaking replay identity.
     */
    Outcome<CtrlRollup> replay(const EventLog& log);

    const ControlPlaneConfig& config() const { return config_; }

  private:
    CellModel cells_;
    ControlPlaneConfig config_;
    cluster::SolverContext context_;
};

} // namespace poco::ctrl
