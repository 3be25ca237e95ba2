#include "ctrl/control_plane.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "runtime/parallel.hpp"
#include "sim/telemetry_rollup.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace poco::ctrl
{

namespace
{

/** Cell-cache load of a cell never evaluated: unequal to any load. */
constexpr double kNeverComputed =
    std::numeric_limits<double>::quiet_NaN();

using fnv::mixDouble;
using fnv::mixWord;

std::uint64_t
hashAssignment(const std::vector<int>& assignment)
{
    std::uint64_t h = fnv::kOffset;
    for (const int j : assignment)
        mixWord(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(j)));
    return h;
}

std::uint64_t
degradationBits(const Degradation& d)
{
    return (d.conservative ? 1u : 0u) |
           (d.modelsUntrusted ? 2u : 0u) | (d.workShed ? 4u : 0u) |
           (d.budgetClamped ? 8u : 0u);
}

/**
 * One record's contribution. The semantic view drops tier/attempts:
 * a failover catch-up legitimately re-solves cold where the oracle
 * ran warm, but every rung is exact, so the *answers* must agree
 * (bit for bit only when every optimum is unique; on ties, in the
 * objective's value).
 */
void
mixRecord(std::uint64_t& h, const EventRecord& r, bool semantic)
{
    mixWord(h, static_cast<std::uint64_t>(r.tick));
    mixWord(h, static_cast<std::uint64_t>(r.kind));
    mixWord(h, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(r.subject)));
    if (!semantic) {
        mixWord(h, static_cast<std::uint64_t>(r.tier));
        mixWord(h, static_cast<std::uint64_t>(r.attempts));
    }
    mixWord(h, static_cast<std::uint64_t>(r.shed ? 1 : 0));
    mixDouble(h, r.objective);
    mixWord(h, r.assignmentFingerprint);
    mixWord(h, r.activeBe);
    mixWord(h, r.placeableServers);
}

std::uint64_t
rollupFingerprint(const CtrlRollup& roll, bool semantic)
{
    std::uint64_t h = fnv::kOffset;
    for (const EventRecord& r : roll.records)
        mixRecord(h, r, semantic);
    mixWord(h, roll.livenessFingerprint);
    mixDouble(h, roll.budgetPool.value());
    return h;
}

} // namespace

std::uint64_t
CtrlCheckpoint::fingerprint() const
{
    std::uint64_t h = fnv::kOffset;
    mixWord(h, lsn);
    mixWord(h, static_cast<std::uint64_t>(tick));
    mixWord(h, tracker.fingerprint());
    for (const char a : active)
        mixWord(h, static_cast<std::uint64_t>(a));
    for (const std::size_t be : activeList)
        mixWord(h, be);
    for (const double l : load)
        mixDouble(h, l);
    mixDouble(h, budgetScale);
    for (const std::size_t s : prevAlive)
        mixWord(h, s);
    for (const EventRecord& r : records)
        mixRecord(h, r, /*semantic=*/false);
    mixWord(h, resolves);
    mixWord(h, sheds);
    mixWord(h, coalesced);
    mixWord(h, maxQueueDepth);
    mixWord(h, static_cast<std::uint64_t>(worst));
    mixWord(h, static_cast<std::uint64_t>(attempts));
    mixWord(h, degradationBits(degradation));
    for (const SimTime t : pending)
        mixWord(h, static_cast<std::uint64_t>(t));
    mixWord(h, dirtySheds);
    return h;
}

void
validateControlPlaneConfig(const ControlPlaneConfig& config)
{
    POCO_REQUIRE(config.servers >= 1,
                 "control plane needs at least one server");
    POCO_REQUIRE(config.bePool >= 1,
                 "control plane needs a BE candidate pool");
    POCO_REQUIRE(config.initialLoad > 0.0 && config.initialLoad <= 1.0,
                 "initialLoad must be in (0, 1]");
    POCO_REQUIRE(!config.backpressure.enabled ||
                     (config.backpressure.window >= 1 &&
                      config.backpressure.resolveCost > 0),
                 "backpressure needs window >= 1 and a positive "
                 "resolve cost");
}

CtrlCheckpoint
CtrlCheckpoint::initial(const ControlPlaneConfig& config)
{
    CtrlCheckpoint state(HeartbeatTracker(
        config.servers, config.heartbeat, config.perServerBudget));
    const std::size_t initial_be =
        std::min(config.initialBe, config.bePool);
    state.active.assign(config.bePool, 0);
    std::fill_n(state.active.begin(), initial_be, 1);
    state.activeList.resize(initial_be);
    std::iota(state.activeList.begin(), state.activeList.end(),
              std::size_t{0});
    state.load.assign(config.servers, config.initialLoad);
    state.prevAlive = state.tracker.placeableServers();
    return state;
}

ReplayEngine::ReplayEngine(const CellModel& cells,
                           const ControlPlaneConfig& config,
                           cluster::SolverContext context,
                           sim::TelemetryAggregator* telemetry)
    : ReplayEngine(cells, config, context,
                   CtrlCheckpoint::initial(config), telemetry)
{}

ReplayEngine::ReplayEngine(const CellModel& cells,
                           const ControlPlaneConfig& config,
                           cluster::SolverContext context,
                           CtrlCheckpoint checkpoint,
                           sim::TelemetryAggregator* telemetry)
    : cells_(cells), config_(config),
      context_(context),
      telemetry_(telemetry),
      placer_(context_),
      state_(std::move(checkpoint)),
      cell_raw_(config.bePool * config.servers),
      cell_load_(config.bePool * config.servers, kNeverComputed)
{
    POCO_REQUIRE(static_cast<bool>(cells),
                 "replay engine needs a cell model");
    validateControlPlaneConfig(config);
    POCO_REQUIRE(state_.active.size() == config.bePool &&
                     state_.load.size() == config.servers,
                 "checkpoint shape does not match the config");
    if (telemetry_ != nullptr)
        POCO_REQUIRE(telemetry_->servers() == config.servers,
                     "telemetry sink must cover every server");
    state_.activeList.reserve(config.bePool);
    state_.pending.reserve(config.backpressure.window + 1);
    // The placer (memo included) and the cell cache start cold:
    // the ladder's rungs are all exact and cells are pure, so the
    // restored master re-derives objectives of the same value as
    // the checkpointed one would have, and the same assignments when
    // every optimum is unique — tier counters differ, which is why
    // the oracle comparison uses the semantic fingerprint.
}

void
ReplayEngine::reserveRecords(std::size_t events)
{
    state_.records.reserve(state_.records.size() + events);
}

void
ReplayEngine::apply(const ControlEvent& e)
{
    POCO_REQUIRE(!finished_, "replay engine already finished");
    const ControlPlaneConfig& cfg = config_;
    state_.tracker.advanceTo(e.tick);
    state_.tick = e.tick;
    std::vector<std::size_t> alive =
        state_.tracker.placeableServers();
    // Liveness transitions (dead servers leaving the matrix,
    // recovered ones re-registering) change the topology even when
    // the event itself would not.
    const bool topo_changed = alive != state_.prevAlive;
    bool matrix_changed = topo_changed;
    cluster::PlacementDelta delta =
        topo_changed ? cluster::PlacementDelta::shape()
                     : cluster::PlacementDelta::fullRefresh();

    switch (e.kind) {
      case EventKind::LoadShift: {
        const double level = std::clamp(e.value, 0.01, 1.0);
        if (e.subject < 0) {
            std::fill(state_.load.begin(), state_.load.end(),
                      level);
            matrix_changed = true;
        } else if (static_cast<std::size_t>(e.subject) <
                   cfg.servers) {
            const auto srv = static_cast<std::size_t>(e.subject);
            state_.load[srv] = level;
            const auto col =
                std::find(alive.begin(), alive.end(), srv);
            if (col != alive.end()) {
                matrix_changed = true;
                if (!topo_changed)
                    delta = cluster::PlacementDelta::column(
                        static_cast<std::size_t>(
                            col - alive.begin()));
            }
            // A dead server's load moves no matrix cell; the new
            // level applies when it re-registers (a shape change
            // at that tick).
        }
        break;
      }
      case EventKind::BeArrive: {
        for (std::size_t i = 0; i < cfg.bePool; ++i) {
            if (!state_.active[i]) {
                state_.active[i] = 1;
                state_.activeList.push_back(i);
                matrix_changed = true;
                delta = cluster::PlacementDelta::shape();
                break;
            }
        }
        break; // pool exhausted: no-op event
      }
      case EventKind::BeDepart: {
        const auto be =
            static_cast<std::size_t>(e.subject < 0 ? 0 : e.subject);
        if (be < cfg.bePool && state_.active[be]) {
            state_.active[be] = 0;
            state_.activeList.erase(
                std::find(state_.activeList.begin(),
                          state_.activeList.end(), be));
            matrix_changed = true;
            delta = cluster::PlacementDelta::shape();
        }
        break;
      }
      case EventKind::ServerCrash: {
        if (e.subject >= 0 &&
            static_cast<std::size_t>(e.subject) < cfg.servers)
            state_.tracker.crash(
                static_cast<std::size_t>(e.subject));
        // The matrix only changes when the liveness ladder later
        // declares the server dead.
        break;
      }
      case EventKind::ServerRecover: {
        if (e.subject >= 0 &&
            static_cast<std::size_t>(e.subject) < cfg.servers)
            state_.tracker.recover(
                static_cast<std::size_t>(e.subject));
        break;
      }
      case EventKind::BudgetChange: {
        state_.budgetScale = std::max(0.05, e.value);
        matrix_changed = true;
        if (!topo_changed)
            delta = cluster::PlacementDelta::fullRefresh();
        break;
      }
    }

    EventRecord rec;
    rec.tick = e.tick;
    rec.kind = e.kind;
    rec.subject = e.subject;
    rec.activeBe =
        static_cast<std::uint32_t>(state_.activeList.size());
    rec.placeableServers = static_cast<std::uint32_t>(alive.size());

    if (matrix_changed && !alive.empty() &&
        !state_.activeList.empty()) {
        const BackpressureConfig& bp = cfg.backpressure;
        bool shed_now = false;
        if (bp.enabled) {
            // Re-solves finish in admission order, so the completed
            // prefix of the pending queue drains off the front.
            std::size_t done = 0;
            while (done < state_.pending.size() &&
                   state_.pending[done] <= e.tick)
                ++done;
            state_.pending.erase(
                state_.pending.begin(),
                state_.pending.begin() +
                    static_cast<std::ptrdiff_t>(done));
            shed_now = state_.pending.size() >= bp.window;
        }

        // Rows: active BEs in arrival order, shed past the live
        // server count (rows <= cols is a hard solver precond).
        std::vector<std::size_t> rows = state_.activeList;
        if (rows.size() > alive.size()) {
            rows.resize(alive.size());
            state_.degradation.workShed = true;
        }

        // Each cell is an independent pure call, re-evaluated only
        // when its server's load moved since the resident value was
        // computed (or it never was). Rows fan out over the pool;
        // row i writes only BE rows[i]'s cache slots and its own
        // matrix slice, so the matrix is bit-identical for any
        // worker count.
        cluster::PerformanceMatrix matrix;
        matrix.resize(rows.size(), alive.size());
        runtime::parallelFor(
            context_.pool, rows.size(), [&](std::size_t i) {
                const std::size_t be = rows[i];
                double* raw = cell_raw_.data() + be * cfg.servers;
                double* at = cell_load_.data() + be * cfg.servers;
                double* row = matrix.row(i);
                for (std::size_t c = 0; c < alive.size(); ++c) {
                    const std::size_t srv = alive[c];
                    // NaN (never computed) compares unequal.
                    const double load = state_.load[srv];
                    if (at[srv] != load) {
                        raw[srv] = cells_(be, srv, load);
                        at[srv] = load;
                    }
                    row[c] = raw[srv] * state_.budgetScale;
                }
            });

        const Outcome<std::vector<int>> placed =
            [&]() -> Outcome<std::vector<int>> {
            if (shed_now) {
                rec.shed = true;
                ++state_.sheds;
                ++state_.dirtySheds;
                return placer_.shed(matrix);
            }
            if (bp.enabled && state_.dirtySheds > 0) {
                // The shed events mutated the modeled state without
                // a solve; this admitted re-solve coalesces all of
                // them (LoadShift-last-wins: the state holds only
                // the latest level) under one shape re-sync.
                delta = cluster::PlacementDelta::shape();
                state_.coalesced += state_.dirtySheds;
                state_.dirtySheds = 0;
            }
            Outcome<std::vector<int>> out =
                cfg.forceCold
                    ? cluster::placeWithFallback(matrix, context_)
                    : placer_.resolve(matrix, delta);
            if (bp.enabled) {
                // The master is busy until its queue drains; this
                // re-solve starts after the last admitted one.
                const SimTime busy_from =
                    state_.pending.empty()
                        ? e.tick
                        : std::max(e.tick, state_.pending.back());
                state_.pending.push_back(busy_from +
                                         bp.resolveCost);
            }
            return out;
        }();
        if (bp.enabled)
            state_.maxQueueDepth = std::max(state_.maxQueueDepth,
                                            state_.pending.size());

        rec.tier = placed.tier;
        rec.attempts = placed.attempts;
        rec.objective = cluster::placementValue(matrix, placed.value);
        rec.assignmentFingerprint = hashAssignment(placed.value);
        state_.worst = worseTier(state_.worst, placed.tier);
        state_.attempts += placed.attempts;
        state_.degradation |= placed.degradation;
        ++state_.resolves;

        if (telemetry_ != nullptr) {
            for (std::size_t i = 0; i < rows.size(); ++i) {
                if (placed.value[i] < 0)
                    continue; // degraded tiers may shed rows
                const auto c =
                    static_cast<std::size_t>(placed.value[i]);
                const std::size_t srv = alive[c];
                sim::TelemetrySample sample;
                sample.when = e.tick;
                sample.lcLoad = Rps(state_.load[srv]);
                sample.beThroughput = Rps(matrix(i, c));
                sample.power =
                    Watts(state_.tracker.granted(srv).value() *
                          state_.load[srv]);
                telemetry_->appendDelta(srv, {sample},
                                        state_.tracker.granted(srv));
            }
        }
    }

    state_.records.push_back(rec);
    state_.prevAlive = std::move(alive);
    ++state_.lsn;
}

CtrlCheckpoint
ReplayEngine::checkpoint() const
{
    POCO_REQUIRE(!finished_, "replay engine already finished");
    return state_;
}

Outcome<CtrlRollup>
ReplayEngine::finish(SimTime horizon)
{
    POCO_REQUIRE(!finished_, "replay engine already finished");
    finished_ = true;

    if (telemetry_ != nullptr)
        telemetry_->sealEpoch(0, horizon + 1);

    POCO_ASSERT(state_.tracker.conservesBudget(),
                "heartbeat tracker leaked budget");

    CtrlRollup roll;
    roll.records = std::move(state_.records);
    roll.resolves = state_.resolves;
    roll.sheds = state_.sheds;
    roll.coalesced = state_.coalesced;
    roll.maxQueueDepth = state_.maxQueueDepth;
    roll.solver = placer_.stats();
    roll.heartbeat = state_.tracker.stats();
    roll.budgetPool = state_.tracker.pool();
    roll.livenessFingerprint = state_.tracker.fingerprint();
    roll.fingerprint = rollupFingerprint(roll, /*semantic=*/false);
    roll.semanticFingerprint =
        rollupFingerprint(roll, /*semantic=*/true);
    return {std::move(roll), state_.worst, state_.attempts,
            state_.degradation};
}

ControlPlane::ControlPlane(CellModel cells,
                           ControlPlaneConfig config,
                           cluster::SolverContext context)
    : cells_(std::move(cells)), config_(config), context_(context)
{
    POCO_REQUIRE(static_cast<bool>(cells_),
                 "control plane needs a cell model");
    validateControlPlaneConfig(config_);
}

Outcome<CtrlRollup>
ControlPlane::replay(const EventLog& log)
{
    // Fresh engine every replay: the identity contract is that two
    // replays of one log agree bit-for-bit, tier counters included.
    ReplayEngine engine(cells_, config_, context_, telemetry_);
    engine.reserveRecords(log.size());
    for (const ControlEvent& e : log.events())
        engine.apply(e);
    return engine.finish(log.horizon());
}

} // namespace poco::ctrl
