/**
 * @file
 * Master failover: a primary/standby group over one ReplayEngine.
 *
 * The single-master ControlPlane assumes the master itself never
 * fails. MasterGroup drops that assumption: a group of M masters
 * shares the totally-ordered EventLog, exactly one (the primary)
 * applies events, and a lease ladder — the same jittered
 * HeartbeatTracker the data plane uses for servers, issued with
 * zero-watt grants — decides when the primary's lease has expired
 * and a standby must take over (DESIGN.md §15).
 *
 * Durability model: the primary checkpoints its cheap state
 * (CtrlCheckpoint) every checkpointEvery applied events. A standby
 * elected after a master *kill* restores the latest checkpoint and
 * replays the log suffix from that LSN; a master recovering from a
 * *pause* still holds its own engine and catches up warm from its
 * own LSN. Both paths re-derive the same semantics — the heartbeat
 * ledger restores by copy (granted-flag idempotence, see
 * heartbeat.hpp), every placer rung is exact, and shed decisions
 * are a pure function of the checkpointed backpressure queue — so
 * the post-catch-up rollup matches an uninterrupted oracle run on
 * every shed flag, liveness bit and milliwatt of budget, equals it
 * in the value of every objective, and never double-grants. It
 * matches on the assignments, and so bit for bit on the objectives
 * and the semantic fingerprint, when every optimum is unique: on
 * exact ties (repeated platforms and apps) a restored master's cold
 * placer and empty memo may pick another optimum of equal value,
 * whose objective (a sum in row order) may differ in the last bit.
 *
 * Failure detection is event-driven: the group notices a dead
 * primary when the next event arrives (the lease is advanced to the
 * event's tick first), so an outage that ends before any event
 * lands goes unnoticed — exactly the staleness the
 * maxStalenessEvents counter bounds.
 *
 * Fault windows come from the shared fault::FaultPlan vocabulary:
 * MasterKill (process lost, engine destroyed) and MasterPause
 * (lease lost, state retained), with window.server naming the
 * master index. All other kinds are ignored here — they belong to
 * the server-level FaultInjector or to EventLog lowering.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/control_plane.hpp"
#include "fault/fault_plan.hpp"

namespace poco::ctrl
{

/** Group shape and durability cadence. */
struct MasterGroupConfig
{
    /** Masters in the group (primary + standbys). */
    std::size_t masters = 2;
    /**
     * Lease cadence/thresholds for master liveness. Deliberately
     * the server HeartbeatConfig: the election ladder *is* the
     * heartbeat ladder, seeded so lease jitter is replayable.
     */
    HeartbeatConfig lease;
    /** Checkpoint the primary every this many applied events. */
    std::size_t checkpointEvery = 16;
};

/** One primary hand-off (or self-restart, fromMaster==toMaster). */
struct FailoverRecord
{
    /** Detection tick (the event that found the lease expired). */
    SimTime tick = 0;
    int fromMaster = 0;
    int toMaster = 0;
    /** Log position the group had reached when it failed over. */
    std::size_t atLsn = 0;
    /** LSN the new primary resumed from (checkpoint or own state). */
    std::size_t resumeLsn = 0;
    /** True when the new primary restored a checkpoint (cold). */
    bool restored = false;
    /** Events the new primary replayed to catch up (incl. current). */
    std::size_t catchUpEvents = 0;
};

/** The group's complete, fingerprintable result. */
struct MasterGroupRollup
{
    /** The surviving primary's rollup — one record per log event. */
    CtrlRollup rollup;
    std::vector<FailoverRecord> failovers;
    /** Checkpoints taken across the run. */
    std::size_t checkpoints = 0;
    /** Worst event backlog any drain had to clear (bounded
     *  staleness invariant). */
    std::size_t maxStalenessEvents = 0;
    /** Lease tracker fingerprint (master liveness history). */
    std::uint64_t masterLivenessFingerprint = 0;
    /** FNV-1a over the rollup fingerprint, every failover record,
     *  the lease fingerprint, and the counters above. */
    std::uint64_t fingerprint = 0;
};

/**
 * Primary/standby replay group. Construct once; each run() is
 * independent (fresh engines, fresh lease), so the same
 * (log, faults) pair produces a bit-identical rollup on every call
 * and for any thread count.
 */
class MasterGroup
{
  public:
    MasterGroup(CellModel cells, ControlPlaneConfig config,
                MasterGroupConfig group,
                cluster::SolverContext context = {});

    /**
     * Drive the log through the group under the given master fault
     * windows. The outcome's tier/attempts/degradation are the
     * surviving primary's (ReplayEngine::finish).
     */
    Outcome<MasterGroupRollup> run(const EventLog& log,
                                   const fault::FaultPlan& faults);

    const ControlPlaneConfig& config() const { return config_; }
    const MasterGroupConfig& group() const { return group_; }

  private:
    CellModel cells_;
    ControlPlaneConfig config_;
    MasterGroupConfig group_;
    cluster::SolverContext context_;
};

} // namespace poco::ctrl
