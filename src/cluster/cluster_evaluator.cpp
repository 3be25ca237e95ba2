#include "cluster/cluster_evaluator.hpp"

#include <algorithm>
#include <bit>

#include "model/fitter.hpp"
#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace poco::cluster
{

const char*
managerKindName(ManagerKind kind)
{
    switch (kind) {
      case ManagerKind::Heracles: return "heracles";
      case ManagerKind::Pom:      return "pom";
    }
    return "?";
}

const char*
policyName(Policy policy)
{
    switch (policy) {
      case Policy::Random: return "Random";
      case Policy::Pom:    return "POM";
      case Policy::PoColo: return "POColo";
    }
    return "?";
}

double
ClusterOutcome::totalBeThroughput() const
{
    double total = 0.0;
    for (const auto& s : servers)
        total += s.run.stats.averageBeThroughput().value();
    return total;
}

double
ClusterOutcome::meanBeThroughput() const
{
    return servers.empty()
               ? 0.0
               : totalBeThroughput() /
                     static_cast<double>(servers.size());
}

double
ClusterOutcome::meanPowerUtilization() const
{
    if (servers.empty())
        return 0.0;
    double total = 0.0;
    for (const auto& s : servers)
        total += s.run.powerUtilization;
    return total / static_cast<double>(servers.size());
}

double
ClusterOutcome::totalEnergyJoules() const
{
    double total = 0.0;
    for (const auto& s : servers)
        total += s.run.stats.energyJoules.value();
    return total;
}

double
ClusterOutcome::maxSloViolationFraction() const
{
    double worst = 0.0;
    for (const auto& s : servers)
        worst = std::max(worst,
                         s.run.stats.sloViolationFraction());
    return worst;
}

ClusterEvaluator::ClusterEvaluator(const wl::AppSet& apps,
                                   FleetConfig config)
    : apps_(&apps), config_(std::move(config))
{
    POCO_REQUIRE(!apps.lc.empty() && !apps.be.empty(),
                 "evaluator needs LC and BE applications");
    config_.validated();

    // Execution substrate: a borrowed pool (the fleet layer shares
    // one across every cluster), serial, the shared pool, or a
    // dedicated one. Results are identical either way (see
    // FleetConfig::threads).
    pool_ = runtime::selectPool(config_.pool, config_.threads,
                                owned_pool_);

    // Stage I (Fig. 7): profile and fit every application once. Each
    // app is an independent task (its profile noise comes from a
    // stream keyed by its own name and grid cell).
    model::ProfilerConfig profiler_config = config_.profiler;
    profiler_config.seed ^= config_.seed * 0x9e3779b97f4a7c15ULL;
    const model::Profiler profiler(profiler_config);
    const model::UtilityFitter fitter;
    lc_models_ = runtime::parallelMap(
        pool_, apps.lc.size(), [&](std::size_t i) {
            const wl::LcApp& lc = apps.lc[i];
            LcServerModel m;
            m.name = lc.name();
            m.utility = fitter.fit(profiler.profileLc(lc, pool_));
            m.peakLoad = lc.peakLoad();
            m.powerCap = lc.provisionedPower();
            return m;
        });
    be_models_ = runtime::parallelMap(
        pool_, apps.be.size(), [&](std::size_t i) {
            const wl::BeApp& be = apps.be[i];
            BeCandidateModel m;
            m.name = be.name();
            m.utility = fitter.fit(profiler.profileBe(be, pool_));
            return m;
        });

    // Stage II: the performance matrix, one task per cell.
    MatrixConfig mc;
    mc.loadPoints = config_.loadPoints;
    mc.headroom = config_.server.controller.headroom;
    matrix_ = buildPerformanceMatrix(be_models_, lc_models_,
                                     apps.spec, mc, pool_);
}

ClusterEvaluator::~ClusterEvaluator() = default;

SolverContext
ClusterEvaluator::solverContext() const
{
    SolverContext context;
    context.pool = pool_;
    return context;
}

std::vector<int>
ClusterEvaluator::placeBe(PlacementKind kind, std::uint64_t seed) const
{
    if (kind == PlacementKind::Random) {
        Rng rng(seed);
        return place(matrix_, kind, rng);
    }
    return place(matrix_, kind, solverContext());
}

bool
ClusterEvaluator::modelsHealthy() const
{
    if (config_.minPerfR2 <= 0.0 && config_.minPowerR2 <= 0.0)
        return true;
    const auto ok = [&](const model::CobbDouglasUtility& u) {
        return u.perfR2 >= config_.minPerfR2 &&
               u.powerR2 >= config_.minPowerR2;
    };
    for (const auto& m : lc_models_)
        if (!ok(m.utility))
            return false;
    for (const auto& m : be_models_)
        if (!ok(m.utility))
            return false;
    return true;
}

std::vector<int>
ClusterEvaluator::placeConservative(const std::vector<int>& up) const
{
    const std::size_t n_be = apps_->be.size();
    std::vector<int> assignment(n_be, -1);
    const std::size_t placed = std::min(n_be, up.size());
    for (std::size_t k = 0; k < placed; ++k)
        assignment[k] = up[k];
    return assignment;
}

Outcome<std::vector<int>>
ClusterEvaluator::placeBeRobust(const std::vector<int>& up,
                                const FallbackOptions& options) const
{
    const std::size_t n_be = apps_->be.size();
    const std::size_t n_srv = apps_->lc.size();
    POCO_REQUIRE(!up.empty(), "robust placement needs a survivor");
    for (std::size_t k = 0; k < up.size(); ++k) {
        POCO_REQUIRE(up[k] >= 0 &&
                     static_cast<std::size_t>(up[k]) < n_srv,
                     "surviving server index out of range");
        POCO_REQUIRE(k == 0 || up[k] > up[k - 1],
                     "surviving servers must be strictly increasing");
    }

    // Which BEs compete this round: all of them when they fit,
    // otherwise the |up| with the highest best-case surviving cell
    // (lowest index wins ties). The rest park until capacity
    // returns.
    std::vector<std::size_t> rows(n_be);
    for (std::size_t i = 0; i < n_be; ++i)
        rows[i] = i;
    if (n_be > up.size()) {
        std::vector<double> score(n_be, 0.0);
        for (std::size_t i = 0; i < n_be; ++i) {
            const double* row = matrix_.row(i);
            for (const int j : up)
                score[i] = std::max(
                    score[i], row[static_cast<std::size_t>(j)]);
        }
        std::stable_sort(rows.begin(), rows.end(),
                         [&](std::size_t a, std::size_t b) {
                             return score[a] > score[b];
                         });
        rows.resize(up.size());
        std::sort(rows.begin(), rows.end());
    }

    Outcome<std::vector<int>> outcome;
    if (n_be > up.size())
        outcome.degradation.workShed = true;
    if (!modelsHealthy()) {
        // The preference matrix is built from fits we no longer
        // trust: place preference-free instead of optimizing noise.
        outcome.value.assign(n_be, -1);
        for (std::size_t k = 0; k < rows.size(); ++k)
            outcome.value[rows[k]] = up[k];
        outcome.tier = SolverTier::Conservative;
        outcome.degradation.conservative = true;
        outcome.degradation.modelsUntrusted = true;
        return outcome;
    }

    PerformanceMatrix sub;
    sub.resize(rows.size(), up.size());
    for (std::size_t k = 0; k < rows.size(); ++k) {
        sub.beNames.push_back(matrix_.beNames[rows[k]]);
        const double* src = matrix_.row(rows[k]);
        double* dst = sub.row(k);
        for (std::size_t c = 0; c < up.size(); ++c)
            dst[c] = src[static_cast<std::size_t>(up[c])];
    }
    for (const int j : up)
        sub.lcNames.push_back(
            matrix_.lcNames[static_cast<std::size_t>(j)]);

    const Outcome<std::vector<int>> solved =
        placeWithFallback(sub, solverContext(), options);
    outcome.tier = solved.tier;
    outcome.attempts = solved.attempts;
    outcome.degradation |= solved.degradation;
    outcome.value.assign(n_be, -1);
    for (std::size_t k = 0; k < rows.size(); ++k)
        outcome.value[rows[k]] =
            up[static_cast<std::size_t>(solved.value[k])];
    return outcome;
}

ClusterFaultOutcome
ClusterEvaluator::runWithServerFaults(
    const fault::FaultPlan& plan, ManagerKind kind,
    const FallbackOptions& options) const
{
    const std::size_t n_srv = apps_->lc.size();
    const fault::FaultPlan crashes =
        plan.ofKind(fault::FaultKind::ServerCrash);
    for (const auto& w : crashes.windows())
        POCO_REQUIRE(w.server < static_cast<int>(n_srv),
                     "crash window targets a server outside the "
                     "cluster");

    ClusterFaultOutcome out;
    out.horizon = std::max(plan.horizon(), SimTime(1));

    // Epoch boundaries: every crash transition inside the horizon.
    std::vector<SimTime> cuts{0, out.horizon};
    for (const auto& w : crashes.windows()) {
        if (w.start < out.horizon)
            cuts.push_back(w.start);
        if (w.end < out.horizon)
            cuts.push_back(w.end);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    double weighted = 0.0;
    const std::vector<int>* prev = nullptr;
    for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
        ClusterFaultEpoch epoch;
        epoch.start = cuts[c];
        epoch.end = cuts[c + 1];
        // Windows are half-open and cut at every transition, so a
        // window covering the epoch start covers the whole epoch.
        std::vector<int> up;
        for (std::size_t j = 0; j < n_srv; ++j) {
            bool is_down = false;
            for (const auto& w : crashes.windows())
                if ((w.server < 0 ||
                     w.server == static_cast<int>(j)) &&
                    w.covers(epoch.start))
                    is_down = true;
            if (is_down)
                epoch.down.push_back(static_cast<int>(j));
            else
                up.push_back(static_cast<int>(j));
        }

        if (up.empty()) {
            // Total outage: nothing to place, nothing to run.
            epoch.placement.value.assign(apps_->be.size(), -1);
            epoch.placement.tier = SolverTier::Conservative;
            epoch.placement.degradation.conservative = true;
            epoch.placement.degradation.workShed = true;
        } else {
            epoch.placement = placeBeRobust(up, options);
        }
        for (const int j : epoch.placement.value)
            if (j < 0)
                ++epoch.unplaced;
        out.solverAttempts += epoch.placement.attempts;
        if (epoch.placement.degradation.conservative)
            ++out.conservativeEpochs;
        out.unplacedBeEpochs += epoch.unplaced;
        if (prev != nullptr && !(epoch.placement.value == *prev))
            ++out.replacements;

        // Steady-state outcome of the epoch's placement, from the
        // (memoized) pair simulations.
        for (std::size_t i = 0;
             i < epoch.placement.value.size(); ++i) {
            const int j = epoch.placement.value[i];
            if (j < 0)
                continue;
            epoch.beThroughput +=
                runPair(static_cast<std::size_t>(j),
                        static_cast<int>(i), kind)
                    .run.stats.averageBeThroughput()
                    .value();
        }
        weighted += epoch.beThroughput *
                    toSeconds(epoch.end - epoch.start);
        out.epochs.push_back(std::move(epoch));
        prev = &out.epochs.back().placement.value;
    }
    out.timeWeightedThroughput = weighted / toSeconds(out.horizon);
    return out;
}

std::unique_ptr<server::PrimaryController>
ClusterEvaluator::makeController(std::size_t lc_idx,
                                 ManagerKind kind,
                                 int seed_variant) const
{
    switch (kind) {
      case ManagerKind::Heracles:
        return std::make_unique<server::HeraclesController>(
            config_.server.controller,
            0x9d5f ^ (static_cast<std::uint64_t>(lc_idx) * 7919) ^
                (config_.seed * 0x2545f4914f6cdd1dULL) ^
                (static_cast<std::uint64_t>(seed_variant) *
                 0xd1342543de82ef95ULL));
      case ManagerKind::Pom:
        return std::make_unique<server::PomController>(
            lc_models_.at(lc_idx).utility, config_.server.controller);
    }
    poco::panic("unreachable manager kind");
}

ServerOutcome
ClusterEvaluator::runPair(std::size_t lc_idx, int be_idx,
                          ManagerKind kind, Watts cap_override,
                          int seed_variant) const
{
    return memoizedRun(lc_idx, be_idx, kind, cap_override,
                       seed_variant, std::nullopt);
}

ServerOutcome
ClusterEvaluator::runPairAtLoad(std::size_t lc_idx, int be_idx,
                                ManagerKind kind,
                                double load_fraction,
                                Watts cap_override) const
{
    return memoizedRun(lc_idx, be_idx, kind, cap_override, 0,
                       load_fraction);
}

ServerOutcome
ClusterEvaluator::memoizedRun(std::size_t lc_idx, int be_idx,
                              ManagerKind kind, Watts cap_override,
                              int seed_variant,
                              std::optional<double> load_fraction) const
{
    POCO_REQUIRE(lc_idx < apps_->lc.size(), "LC index out of range");
    POCO_REQUIRE(be_idx < static_cast<int>(apps_->be.size()),
                 "BE index out of range");
    POCO_REQUIRE(cap_override >= Watts{},
                 "cap override must be non-negative");

    // Keyed by value, down to the bit patterns of load and cap: two
    // loads that agree to any number of printed digits are still
    // two different runs.
    const PairKey key{
        lc_idx,
        be_idx,
        kind,
        seed_variant,
        load_fraction.has_value(),
        std::bit_cast<std::uint64_t>(load_fraction.value_or(0.0)),
        std::bit_cast<std::uint64_t>(cap_override.value())};
    {
        runtime::LockGuard guard(cache_mutex_);
        if (auto it = cache_.find(key); it != cache_.end())
            return it->second;
    }

    const wl::LcApp& lc = apps_->lc[lc_idx];
    const wl::BeApp* be =
        be_idx >= 0 ? &apps_->be[static_cast<std::size_t>(be_idx)]
                    : nullptr;
    const Watts cap = cap_override > Watts{} ? cap_override
                                         : lc.provisionedPower();

    ServerOutcome outcome;
    outcome.lcName = lc.name();
    outcome.beName = be ? be->name() : "(none)";
    if (load_fraction.has_value()) {
        outcome.run = server::runServerScenario(
            lc, be, cap, makeController(lc_idx, kind, seed_variant),
            wl::LoadTrace::constant(*load_fraction),
            config_.server.warmup + config_.dwell, config_.server);
    } else {
        outcome.run = server::runServerScenario(
            lc, be, cap, makeController(lc_idx, kind, seed_variant),
            wl::LoadTrace::stepped(config_.loadPoints, config_.dwell),
            config_.server.warmup +
                config_.dwell *
                    static_cast<SimTime>(config_.loadPoints.size()),
            config_.server);
    }
    // Concurrent tasks may have raced on the same key; the runs are
    // deterministic, so whichever insert lands first is the value.
    runtime::LockGuard guard(cache_mutex_);
    return cache_.emplace(key, std::move(outcome)).first->second;
}

ClusterOutcome
ClusterEvaluator::runAssignment(const std::vector<int>& assignment,
                                ManagerKind kind) const
{
    POCO_REQUIRE(assignment.size() <= apps_->lc.size(),
                 "more assignments than servers");
    ClusterOutcome outcome;
    // Servers with an assigned co-runner.
    std::vector<int> be_of(apps_->lc.size(), -1);
    for (std::size_t i = 0; i < assignment.size(); ++i) {
        const int j = assignment[i];
        POCO_REQUIRE(j >= 0 &&
                     static_cast<std::size_t>(j) < apps_->lc.size(),
                     "assignment server index out of range");
        POCO_REQUIRE(be_of[static_cast<std::size_t>(j)] == -1,
                     "two BE apps assigned to one server");
        be_of[static_cast<std::size_t>(j)] = static_cast<int>(i);
    }
    // One simulation per server; each owns its server and manager,
    // so the runs parallelize with no shared state.
    outcome.servers = runtime::parallelMap(
        pool_, apps_->lc.size(),
        [&](std::size_t j) { return runPair(j, be_of[j], kind); });
    return outcome;
}

ClusterOutcome
ClusterEvaluator::runRandomAveraged(ManagerKind kind,
                                    Watts cap_override) const
{
    // Expectation over the uniform random permutation: by symmetry
    // each server sees each BE app with equal probability, so the
    // per-server expectation is the mean over candidates.
    const int replicas = kind == ManagerKind::Heracles
                             ? std::max(1, config_.heraclesReplicas)
                             : 1;
    const std::size_t per_server =
        apps_->be.size() * static_cast<std::size_t>(replicas);

    // All (server, candidate, replica) simulations run as one
    // parallel wave; the accumulation below then reduces them in the
    // fixed serial order, keeping the averages bit-identical to a
    // serial evaluation.
    const auto runs = runtime::parallelMap(
        pool_, apps_->lc.size() * per_server, [&](std::size_t k) {
            const std::size_t j = k / per_server;
            const std::size_t r = k % per_server;
            const std::size_t i =
                r / static_cast<std::size_t>(replicas);
            const int rep =
                static_cast<int>(r % static_cast<std::size_t>(replicas));
            return runPair(j, static_cast<int>(i), kind,
                           cap_override, rep);
        });

    ClusterOutcome outcome;
    std::size_t k = 0;
    for (std::size_t j = 0; j < apps_->lc.size(); ++j) {
        ServerOutcome avg;
        avg.lcName = apps_->lc[j].name();
        avg.beName = "(random)";
        server::ServerRunResult acc;
        for (std::size_t i = 0; i < apps_->be.size(); ++i) {
          for (int rep = 0; rep < replicas; ++rep) {
            const ServerOutcome& one = runs[k++];
            acc.stats.elapsed = one.run.stats.elapsed;
            acc.stats.energyJoules += one.run.stats.energyJoules;
            acc.stats.beWorkDone += one.run.stats.beWorkDone;
            acc.stats.sloViolationTime +=
                one.run.stats.sloViolationTime;
            acc.stats.cappedTime += one.run.stats.cappedTime;
            acc.stats.maxPower =
                std::max(acc.stats.maxPower, one.run.stats.maxPower);
            acc.powerUtilization += one.run.powerUtilization;
            acc.averageSlack += one.run.averageSlack;
            acc.slackShortfallFraction +=
                one.run.slackShortfallFraction;
          }
        }
        const double n = static_cast<double>(apps_->be.size()) *
                         static_cast<double>(replicas);
        acc.stats.energyJoules /= n;
        acc.stats.beWorkDone /= n;
        acc.stats.sloViolationTime = static_cast<SimTime>(
            static_cast<double>(acc.stats.sloViolationTime) / n);
        acc.stats.cappedTime = static_cast<SimTime>(
            static_cast<double>(acc.stats.cappedTime) / n);
        acc.powerUtilization /= n;
        acc.averageSlack /= n;
        acc.slackShortfallFraction /= n;
        avg.run = acc;
        outcome.servers.push_back(std::move(avg));
    }
    return outcome;
}

ClusterOutcome
ClusterEvaluator::runPolicy(Policy policy) const
{
    switch (policy) {
      case Policy::Random:
        return runRandomAveraged(ManagerKind::Heracles);
      case Policy::Pom:
        return runRandomAveraged(ManagerKind::Pom);
      case Policy::PoColo:
        return runAssignment(placeBe(PlacementKind::Lp),
                             ManagerKind::Pom);
    }
    poco::panic("unreachable policy");
}

} // namespace poco::cluster
