#include "ctrl/master_group.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/check.hpp"
#include "util/fnv.hpp"

namespace poco::ctrl
{

namespace
{

using fnv::mixWord;

/** A fault window edge: a master going down or coming back. */
struct Boundary
{
    SimTime tick = 0;
    int master = 0;
    bool start = false; // false: window end (master returns)
    bool kill = false;  // MasterKill (vs MasterPause)
};

/** Ends before starts at a tick so back-to-back windows leave the
 *  master down for the union, deterministically. */
bool
boundaryLess(const Boundary& a, const Boundary& b)
{
    if (a.tick != b.tick)
        return a.tick < b.tick;
    if (a.start != b.start)
        return !a.start;
    if (a.master != b.master)
        return a.master < b.master;
    return a.kill < b.kill;
}

std::uint64_t
groupFingerprint(const MasterGroupRollup& roll)
{
    std::uint64_t h = fnv::kOffset;
    mixWord(h, roll.rollup.fingerprint);
    for (const FailoverRecord& f : roll.failovers) {
        mixWord(h, static_cast<std::uint64_t>(f.tick));
        mixWord(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(f.fromMaster)));
        mixWord(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(f.toMaster)));
        mixWord(h, f.atLsn);
        mixWord(h, f.resumeLsn);
        mixWord(h, static_cast<std::uint64_t>(f.restored ? 1 : 0));
        mixWord(h, f.catchUpEvents);
    }
    mixWord(h, roll.checkpoints);
    mixWord(h, roll.maxStalenessEvents);
    mixWord(h, roll.masterLivenessFingerprint);
    return h;
}

} // namespace

MasterGroup::MasterGroup(CellModel cells, ControlPlaneConfig config,
                         MasterGroupConfig group,
                         cluster::SolverContext context)
    : cells_(std::move(cells)), config_(config), group_(group),
      context_(context)
{
    POCO_REQUIRE(static_cast<bool>(cells_),
                 "master group needs a cell model");
    POCO_REQUIRE(group_.masters >= 1,
                 "master group needs at least one master");
    POCO_REQUIRE(group_.checkpointEvery >= 1,
                 "checkpoint cadence must be at least 1 event");
    validateControlPlaneConfig(config_);
}

Outcome<MasterGroupRollup>
MasterGroup::run(const EventLog& log, const fault::FaultPlan& faults)
{
    const std::size_t masters = group_.masters;

    // Lower the master fault windows to sorted down/up edges. Other
    // kinds in the plan belong to other layers and are skipped.
    std::vector<Boundary> boundaries;
    boundaries.reserve(faults.windows().size() * 2);
    SimTime fault_horizon = 0;
    for (const fault::FaultWindow& w : faults.windows()) {
        if (w.kind != fault::FaultKind::MasterKill &&
            w.kind != fault::FaultKind::MasterPause)
            continue;
        POCO_REQUIRE(w.server >= 0 &&
                         static_cast<std::size_t>(w.server) <
                             masters,
                     "master fault window names a master outside "
                     "the group");
        const bool kill = w.kind == fault::FaultKind::MasterKill;
        boundaries.push_back({w.start, w.server, true, kill});
        boundaries.push_back({w.end, w.server, false, kill});
        fault_horizon = std::max(fault_horizon, w.end);
    }
    std::sort(boundaries.begin(), boundaries.end(), boundaryLess);

    // Zero-watt grants: the lease ladder reuses the heartbeat
    // tracker purely for seeded, jittered liveness.
    HeartbeatTracker lease(masters, group_.lease, Watts{});
    std::vector<std::unique_ptr<ReplayEngine>> engines(masters);
    std::vector<int> down(masters, 0); // nesting count of windows

    MasterGroupRollup roll;
    // At most one failover per fault window plus the shutdown
    // election — bounded, so the record list never reallocates.
    roll.failovers.reserve(faults.windows().size() + 1);
    std::size_t primary = 0;

    engines[primary] = std::make_unique<ReplayEngine>(
        cells_, config_, context_);
    engines[primary]->reserveRecords(log.size());
    // Durable floor: a group that loses every engine before the
    // first cadence checkpoint still has an LSN-0 state to restore.
    // Only the newest checkpoint is ever restored, so only it is
    // kept (real systems truncate the log the same way).
    CtrlCheckpoint latest = engines[primary]->checkpoint();
    ++roll.checkpoints;

    std::size_t next_boundary = 0;
    const auto processBoundariesThrough = [&](SimTime tick) {
        while (next_boundary < boundaries.size() &&
               boundaries[next_boundary].tick <= tick) {
            const Boundary& b = boundaries[next_boundary];
            lease.advanceTo(b.tick);
            const auto m = static_cast<std::size_t>(b.master);
            if (b.start) {
                if (down[m]++ == 0)
                    lease.crash(m);
                if (b.kill)
                    engines[m].reset(); // process state is gone
            } else {
                if (--down[m] == 0)
                    lease.recover(m);
            }
            ++next_boundary;
        }
    };

    // Elect a new primary: any up master, preferring the highest
    // resumable LSN (own engine or the latest checkpoint), ties to
    // the lowest index — fully deterministic.
    const auto electPrimary = [&](SimTime tick, std::size_t lsn) {
        const std::size_t checkpoint_lsn = latest.lsn;
        std::size_t best = masters;
        std::size_t best_lsn = 0;
        for (std::size_t m = 0; m < masters; ++m) {
            if (down[m] > 0)
                continue;
            const std::size_t resumable =
                engines[m] ? std::max(engines[m]->applied(),
                                      checkpoint_lsn)
                           : checkpoint_lsn;
            if (best == masters || resumable > best_lsn) {
                best = m;
                best_lsn = resumable;
            }
        }
        if (best == masters)
            return false; // total outage: stall until a recovery

        FailoverRecord rec;
        rec.tick = tick;
        rec.fromMaster = static_cast<int>(primary);
        rec.toMaster = static_cast<int>(best);
        rec.atLsn = lsn;
        if (!engines[best] ||
            engines[best]->applied() < checkpoint_lsn) {
            engines[best] = std::make_unique<ReplayEngine>(
                cells_, config_, context_, latest);
            rec.restored = true;
        }
        rec.resumeLsn = engines[best]->applied();
        rec.catchUpEvents = lsn + 1 - rec.resumeLsn;
        roll.failovers.push_back(rec);
        primary = best;
        engines[primary]->reserveRecords(log.size() -
                                         engines[primary]->applied());
        return true;
    };

    const auto drainTo = [&](std::size_t lsn) {
        ReplayEngine& eng = *engines[primary];
        if (eng.applied() <= lsn)
            roll.maxStalenessEvents =
                std::max(roll.maxStalenessEvents,
                         lsn - eng.applied());
        while (eng.applied() <= lsn) {
            eng.apply(log.events()[eng.applied()]);
            if (eng.applied() % group_.checkpointEvery == 0) {
                latest = eng.checkpoint();
                ++roll.checkpoints;
            }
        }
    };

    const std::vector<ControlEvent>& events = log.events();
    for (std::size_t lsn = 0; lsn < events.size(); ++lsn) {
        const SimTime tick = events[lsn].tick;
        processBoundariesThrough(tick);
        lease.advanceTo(tick);

        // Lease check: a dead primary (or one that came back from a
        // kill with no state) hands off before this event is applied.
        const bool primary_out =
            down[primary] > 0 &&
            lease.health(primary) == ServerHealth::Dead;
        const bool primary_stateless =
            down[primary] == 0 && !engines[primary];
        if (primary_out || primary_stateless) {
            if (!electPrimary(tick, lsn))
                continue; // nobody up: the event waits in the log
        }
        if (down[primary] > 0)
            continue; // lease grace: backlog accrues as staleness

        drainTo(lsn);
    }

    // Shutdown: let every window close and every master re-register
    // (two full jittered periods guarantee at least one beat), then
    // make sure a primary exists and has drained the whole log.
    processBoundariesThrough(fault_horizon);
    const SimTime settle =
        2 * (group_.lease.periodTicks + group_.lease.jitterTicks);
    const SimTime end_tick =
        std::max(log.horizon(), fault_horizon) + settle;
    lease.advanceTo(end_tick);
    if (!events.empty()) {
        if (!engines[primary])
            POCO_ASSERT(electPrimary(end_tick, events.size() - 1),
                        "no master available at shutdown");
        drainTo(events.size() - 1);
    }

    Outcome<CtrlRollup> fin =
        engines[primary]->finish(log.horizon());
    POCO_ASSERT(fin.value.records.size() == events.size(),
                "failover lost or duplicated log records");

    roll.rollup = std::move(fin.value);
    roll.masterLivenessFingerprint = lease.fingerprint();
    roll.fingerprint = groupFingerprint(roll);
    return {std::move(roll), fin.tier, fin.attempts,
            fin.degradation};
}

} // namespace poco::ctrl
