#include "fleet/fleet_evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/parallel.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/milliwatts.hpp"
#include "util/rng.hpp"

namespace poco::fleet
{

namespace
{

// Budget arithmetic runs in integer milliwatts (util/milliwatts.hpp):
// donations and grants are exact, so the conservation invariant (sum
// of cluster budgets == fleet budget, every epoch) holds bit for bit
// with no rounding drift to chase.

using fnv::mixDouble;
using fnv::mixWord;

void
hashRollup(std::uint64_t& h, const sim::EpochRollup& r)
{
    mixWord(h, static_cast<std::uint64_t>(r.start));
    mixWord(h, static_cast<std::uint64_t>(r.end));
    mixWord(h, r.samples);
    mixDouble(h, r.meanPower.value());
    mixDouble(h, r.meanBeThroughput.value());
    mixDouble(h, r.energy.value());
    mixDouble(h, r.capOvershoot.value());
    mixDouble(h, r.maxLatencyP99);
}

Watts
resolvedBudget(const FleetServer& server)
{
    return server.budget > Watts{}
               ? server.budget
               : server.apps->lc[server.lcIndex].provisionedPower();
}

} // namespace

std::vector<FleetCluster>
partitionFleet(const std::vector<FleetServer>& servers)
{
    POCO_REQUIRE(!servers.empty(), "fleet needs at least one server");
    std::vector<FleetCluster> clusters;
    for (std::size_t s = 0; s < servers.size(); ++s) {
        const FleetServer& server = servers[s];
        POCO_REQUIRE(server.apps != nullptr,
                     "fleet server needs an AppSet");
        POCO_REQUIRE(server.lcIndex < server.apps->lc.size(),
                     "fleet server LC index out of range");
        POCO_REQUIRE(server.budget >= Watts{},
                     "fleet server budget must be non-negative");
        FleetCluster* home = nullptr;
        for (auto& cluster : clusters)
            if (cluster.apps == server.apps) {
                home = &cluster;
                break;
            }
        if (home == nullptr) {
            clusters.emplace_back();
            home = &clusters.back();
            home->apps = server.apps;
        }
        home->members.push_back(s);
        home->lcIndices.push_back(server.lcIndex);
        home->provisioned += resolvedBudget(server);
    }
    return clusters;
}

std::uint64_t
FleetRollup::fingerprint() const
{
    std::uint64_t h = fnv::kOffset;
    mixWord(h, epochs.size());
    for (const FleetEpoch& epoch : epochs) {
        mixDouble(h, epoch.load);
        mixDouble(h, epoch.fleetBudget.value());
        mixWord(h, epoch.clusters.size());
        for (const ClusterEpochOutcome& c : epoch.clusters) {
            mixWord(h, c.cluster);
            mixDouble(h, c.budget.value());
            mixDouble(h, c.memberCap.value());
            mixWord(h, static_cast<std::uint64_t>(c.tier));
            mixWord(h, static_cast<std::uint64_t>(c.solverAttempts));
            mixWord(h, (c.degradation.conservative ? 1u : 0u) |
                           (c.degradation.modelsUntrusted ? 2u : 0u) |
                           (c.degradation.workShed ? 4u : 0u) |
                           (c.degradation.budgetClamped ? 8u : 0u));
            mixDouble(h, c.beThroughput.value());
            mixDouble(h, c.energy.value());
            mixDouble(h, c.meanDraw.value());
            mixWord(h, c.capped ? 1 : 0);
            hashRollup(h, c.telemetry);
        }
        hashRollup(h, epoch.telemetry);
    }
    mixDouble(h, totalBeThroughput.value());
    mixDouble(h, totalEnergy.value());
    mixDouble(h, totalCapOvershoot.value());
    // aggregatorSeconds deliberately excluded: wall-clock only.
    return h;
}

FleetEvaluator::FleetEvaluator(std::vector<FleetServer> servers,
                               FleetConfig config)
    : servers_(std::move(servers)), config_(std::move(config))
{
    config_.validated();
    clusters_ = partitionFleet(servers_);
    POCO_CHECK(config_.epochClusterWidth == 0 ||
                   config_.epochClusterWidth == clusters_.size(),
               "scenario loads cover a different cluster count than "
               "this fleet partitions into");

    // One pool for everything: the per-cluster tasks and each
    // cluster's internal parallelism. Helping joins make the nesting
    // safe on any pool size.
    pool_ = runtime::selectPool(config_.pool, config_.threads,
                                owned_pool_);

    slot_base_.resize(clusters_.size());
    std::size_t slots = 0;
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        slot_base_[c] = slots;
        slots += clusters_[c].members.size();
    }

    // Build the per-cluster evaluators (profiling + fitting), one
    // task per canonical cluster. Each cluster's seed splits off its
    // canonical index, so the fitted models are a pure function of
    // (fleet, seed) — never of which worker built them.
    const Rng root(config_.seed);
    evaluators_.resize(clusters_.size());
    runtime::parallelFor(pool_, clusters_.size(), [&](std::size_t c) {
        Rng stream = root.split(c);
        FleetConfig derived = config_;
        derived.pool = pool_;
        derived.threads = 1;
        derived.seed = stream.nextU64();
        derived.server.keepTelemetry = true;
        evaluators_[c] = std::make_unique<cluster::ClusterEvaluator>(
            *clusters_[c].apps, derived);
    });
}

FleetEvaluator::~FleetEvaluator() = default;

const cluster::ClusterEvaluator&
FleetEvaluator::clusterEvaluator(std::size_t index) const
{
    POCO_REQUIRE(index < evaluators_.size(),
                 "cluster index out of range");
    return *evaluators_[index];
}

ClusterEpochOutcome
FleetEvaluator::runClusterEpoch(
    std::size_t index, double load, long long budget_mw,
    sim::TelemetryAggregator& aggregator) const
{
    const FleetCluster& home = clusters_[index];
    const cluster::ClusterEvaluator& evaluator = *evaluators_[index];
    const std::size_t members = home.members.size();

    ClusterEpochOutcome out;
    out.cluster = index;
    out.budget = fromMilliwatts(budget_mw);
    const long long member_cap_mw =
        budget_mw / static_cast<long long>(members);
    POCO_ASSERT(member_cap_mw > 0,
                "cluster budget rounds to a zero member cap");
    out.memberCap = fromMilliwatts(member_cap_mw);

    // The distinct LC servers this cluster exposes (members hosting
    // the same LC app replicate its pairing).
    std::vector<int> up;
    for (const std::size_t j : home.lcIndices)
        up.push_back(static_cast<int>(j));
    std::sort(up.begin(), up.end());
    up.erase(std::unique(up.begin(), up.end()), up.end());

    const Outcome<std::vector<int>> placement =
        evaluator.placeBeRobust(up);
    out.tier = placement.tier;
    out.solverAttempts = placement.attempts;
    out.degradation = placement.degradation;

    std::vector<int> be_of(home.apps->lc.size(), -1);
    for (std::size_t i = 0; i < placement.value.size(); ++i)
        if (placement.value[i] >= 0)
            be_of[static_cast<std::size_t>(placement.value[i])] =
                static_cast<int>(i);

    for (std::size_t k = 0; k < members; ++k) {
        const std::size_t j = home.lcIndices[k];
        cluster::ServerOutcome run = evaluator.runPairAtLoad(
            j, be_of[j], cluster::ManagerKind::Pom, load,
            out.memberCap);
        out.beThroughput += run.run.stats.averageBeThroughput();
        out.energy += run.run.stats.energyJoules;
        out.meanDraw += run.run.stats.averagePower();
        if (run.run.stats.cappedTime > 0)
            out.capped = true;
        aggregator.add(slot_base_[index] + k,
                       std::move(run.run.telemetry), out.memberCap);
    }
    return out;
}

FleetEvaluator::StreamingSetup
FleetEvaluator::streamingSetup() const
{
    // Flatten the fleet into one control-plane cluster: BE rows are
    // every cluster's fitted candidates in canonical (cluster,
    // candidate) order, server columns the fleet servers in global
    // index order. Cross-platform cells pair a candidate's fitted
    // utility with the host server's platform model and spec.
    struct BeEntry
    {
        std::size_t cluster;
        std::size_t index;
    };
    std::vector<BeEntry> be_table;
    for (std::size_t c = 0; c < clusters_.size(); ++c)
        for (std::size_t b = 0;
             b < evaluators_[c]->beModels().size(); ++b)
            be_table.push_back({c, b});
    POCO_REQUIRE(!be_table.empty(),
                 "streaming needs at least one BE candidate");

    struct ServerEntry
    {
        std::size_t cluster;
        std::size_t lc;
    };
    std::vector<ServerEntry> server_table(servers_.size());
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
        const FleetCluster& home = clusters_[c];
        for (std::size_t k = 0; k < home.members.size(); ++k)
            server_table[home.members[k]] = {c, home.lcIndices[k]};
    }

    StreamingSetup setup;
    const double headroom = config_.server.controller.headroom;
    setup.cells =
        [this, be_table, server_table, headroom](
            std::size_t be, std::size_t server, double load) {
            const BeEntry& cand = be_table[be];
            const ServerEntry& host = server_table[server];
            return cluster::estimateCellAtLoad(
                evaluators_[cand.cluster]->beModels()[cand.index],
                evaluators_[host.cluster]->lcModels()[host.lc],
                clusters_[host.cluster].apps->spec, load, headroom);
        };

    ctrl::ControlPlaneConfig& cfg = setup.config;
    cfg.servers = servers_.size();
    cfg.bePool = be_table.size();
    cfg.initialBe = be_table.size();
    cfg.initialLoad = config_.streamingInitialLoad;
    // Per-server grant: the fleet's provisioned budget split evenly
    // in integer milliwatts (same exact arithmetic as run()).
    long long provisioned_mw = 0;
    for (const FleetCluster& home : clusters_)
        provisioned_mw += toMilliwatts(home.provisioned);
    cfg.perServerBudget = fromMilliwatts(
        provisioned_mw / static_cast<long long>(servers_.size()));
    cfg.heartbeat.periodTicks = config_.heartbeatPeriod;
    cfg.heartbeat.jitterTicks = config_.heartbeatJitter;
    cfg.heartbeat.suspectMisses = config_.heartbeatSuspectMisses;
    cfg.heartbeat.deadMisses = config_.heartbeatDeadMisses;
    cfg.heartbeat.seed = config_.seed;
    cfg.backpressure.enabled = config_.backpressureEnabled;
    cfg.backpressure.window = config_.backpressureWindow;
    cfg.backpressure.resolveCost = config_.backpressureResolveCost;
    cfg.forceCold = config_.streamingForceCold;

    setup.context.pool = pool_;

    setup.clusterOf.resize(servers_.size());
    for (std::size_t s = 0; s < servers_.size(); ++s)
        setup.clusterOf[s] = server_table[s].cluster;
    return setup;
}

Outcome<ctrl::CtrlRollup>
FleetEvaluator::runStreaming(const ctrl::EventLog& log) const
{
    StreamingSetup setup = streamingSetup();
    ctrl::ControlPlane plane(std::move(setup.cells), setup.config,
                             setup.context);

    // Telemetry slots are indexed by global server index here (the
    // control plane's column space), unlike run()'s cluster-major
    // slot_base_ layout.
    sim::TelemetryAggregator aggregator(std::move(setup.clusterOf),
                                        clusters_.size());
    plane.attachTelemetry(&aggregator);

    Outcome<ctrl::CtrlRollup> outcome = plane.replay(log);

    // The replay sealed exactly one epoch; fold it so the delta
    // pushes exercise the same rollup machinery as run(). The fold
    // never feeds the fingerprint (it is telemetry-only).
    const auto folded = aggregator.drain();
    POCO_ASSERT(folded.size() == 1,
                "streaming replay seals exactly one epoch");
    return outcome;
}

Outcome<ctrl::MasterGroupRollup>
FleetEvaluator::runStreamingWithFailover(
    const ctrl::EventLog& log,
    const fault::FaultPlan& masterFaults) const
{
    StreamingSetup setup = streamingSetup();

    ctrl::MasterGroupConfig group;
    group.masters = config_.ctrlMasters;
    group.checkpointEvery = config_.ctrlCheckpointEvery;
    group.lease.periodTicks = config_.heartbeatPeriod;
    group.lease.jitterTicks = config_.heartbeatJitter;
    group.lease.suspectMisses = config_.heartbeatSuspectMisses;
    group.lease.deadMisses = config_.heartbeatDeadMisses;
    // Distinct stream from the server heartbeat jitter: master
    // elections must not consume (or mirror) server liveness draws.
    group.lease.seed = config_.seed ^ 0xc01df00d5eed1ea5ULL;

    ctrl::MasterGroup masters(std::move(setup.cells), setup.config,
                              group, setup.context);
    return masters.run(log, masterFaults);
}

Outcome<FleetRollup>
FleetEvaluator::run() const
{
    const std::size_t n_clusters = clusters_.size();

    // Initial budgets in integer milliwatts. A non-zero fleetBudget
    // splits over the clusters proportionally to their provisioned
    // sums, remainder milliwatts going to the first clusters in
    // canonical order — integer arithmetic, exactly conserved.
    std::vector<long long> budget_mw(n_clusters);
    long long provisioned_total = 0;
    for (std::size_t c = 0; c < n_clusters; ++c) {
        budget_mw[c] = toMilliwatts(clusters_[c].provisioned);
        provisioned_total += budget_mw[c];
    }
    if (config_.fleetBudget > Watts{}) {
        const long long total = toMilliwatts(config_.fleetBudget);
        long long assigned = 0;
        for (std::size_t c = 0; c < n_clusters; ++c) {
            budget_mw[c] =
                provisioned_total > 0
                    ? total *
                          toMilliwatts(clusters_[c].provisioned) /
                          provisioned_total
                    : total / static_cast<long long>(n_clusters);
            assigned += budget_mw[c];
        }
        for (std::size_t c = 0; assigned < total && c < n_clusters;
             ++c) {
            ++budget_mw[c];
            ++assigned;
        }
        POCO_ASSERT(assigned == total,
                    "fleet budget split lost milliwatts");
    }
    long long fleet_total_mw = 0;
    for (const long long b : budget_mw)
        fleet_total_mw += b;

    // Redistribution floor: a cluster never donates below half its
    // share of the fleet budget. Hitting the floor sets the
    // budgetClamped degradation flag on the run outcome.
    std::vector<long long> floor_mw(n_clusters);
    for (std::size_t c = 0; c < n_clusters; ++c)
        floor_mw[c] = budget_mw[c] / 2;

    std::vector<std::size_t> cluster_of;
    for (std::size_t c = 0; c < n_clusters; ++c)
        cluster_of.insert(cluster_of.end(),
                          clusters_[c].members.size(), c);
    sim::TelemetryAggregator aggregator(std::move(cluster_of),
                                        n_clusters);

    const SimTime fold_start = config_.server.warmup;
    const SimTime fold_end = config_.server.warmup + config_.dwell;

    Outcome<FleetRollup> outcome;
    FleetRollup& rollup = outcome.value;

    for (std::size_t e = 0; e < config_.epochLoads.size(); ++e) {
        const double load = config_.epochLoads[e];
        // Scenario schedules give every cluster its own offered
        // load for the epoch; epoch.load then reports the fleet
        // mean. Without one, every cluster serves the epoch load
        // (the pre-scenario behaviour, bit for bit).
        const double* cluster_loads =
            config_.epochClusterWidth > 0
                ? config_.epochClusterLoads.data() +
                      e * config_.epochClusterWidth
                : nullptr;
        FleetEpoch epoch;
        epoch.load = load;
        epoch.fleetBudget = fromMilliwatts(fleet_total_mw);
        epoch.clusters.resize(n_clusters);

        // Evaluate the epoch's clusters, one task per canonical
        // index. Each task writes only cluster-indexed slots (result
        // entries, telemetry server slots), so scheduling never
        // touches a result bit.
        runtime::parallelFor(pool_, n_clusters, [&](std::size_t c) {
            epoch.clusters[c] = runClusterEpoch(
                c, cluster_loads != nullptr ? cluster_loads[c] : load,
                budget_mw[c], aggregator);
        });
        aggregator.sealEpoch(fold_start, fold_end);

        // Budget redistribution (canonical order, integer mW):
        // donors release half their unused headroom — never below
        // the floor — and power-capped clusters split the pooled
        // donations proportionally to member count, remainder
        // milliwatts to the first receivers. Releases equal grants
        // exactly, so the fleet sum is invariant by construction.
        if (config_.redistributeBudget) {
            std::vector<std::size_t> receivers;
            long long receiver_weight = 0;
            for (std::size_t c = 0; c < n_clusters; ++c)
                if (epoch.clusters[c].capped) {
                    receivers.push_back(c);
                    receiver_weight += static_cast<long long>(
                        clusters_[c].members.size());
                }
            if (!receivers.empty() && receivers.size() < n_clusters) {
                long long pool_mw = 0;
                for (std::size_t c = 0; c < n_clusters; ++c) {
                    const ClusterEpochOutcome& co = epoch.clusters[c];
                    if (co.capped)
                        continue;
                    const long long draw_mw =
                        toMilliwatts(co.meanDraw);
                    const long long surplus =
                        budget_mw[c] - draw_mw;
                    if (surplus <= 0)
                        continue;
                    long long give = surplus / 2;
                    const long long room =
                        budget_mw[c] - floor_mw[c];
                    if (give > room) {
                        give = std::max<long long>(room, 0);
                        outcome.degradation.budgetClamped = true;
                    }
                    budget_mw[c] -= give;
                    pool_mw += give;
                }
                long long granted = 0;
                for (const std::size_t c : receivers) {
                    const long long share =
                        pool_mw *
                        static_cast<long long>(
                            clusters_[c].members.size()) /
                        receiver_weight;
                    budget_mw[c] += share;
                    granted += share;
                }
                for (std::size_t k = 0;
                     granted < pool_mw && k < receivers.size(); ++k) {
                    ++budget_mw[receivers[k]];
                    ++granted;
                }
                POCO_ASSERT(granted == pool_mw,
                            "redistribution lost milliwatts");
            }
        }

        for (const ClusterEpochOutcome& co : epoch.clusters) {
            outcome.tier = worseTier(outcome.tier, co.tier);
            outcome.attempts += co.solverAttempts;
            outcome.degradation |= co.degradation;
        }
        rollup.epochs.push_back(std::move(epoch));
    }

    // Attach the folded rollups, in seal order (epoch order).
    const auto folded = aggregator.drain();
    POCO_ASSERT(folded.size() == rollup.epochs.size(),
                "aggregator epoch count mismatch");
    for (std::size_t e = 0; e < folded.size(); ++e) {
        FleetEpoch& epoch = rollup.epochs[e];
        for (std::size_t c = 0; c < n_clusters; ++c)
            epoch.clusters[c].telemetry = folded[e].clusters[c];
        epoch.telemetry = folded[e].fleet;
        rollup.aggregatorSeconds += folded[e].foldSeconds;
    }

    for (const FleetEpoch& epoch : rollup.epochs) {
        for (const ClusterEpochOutcome& co : epoch.clusters) {
            rollup.totalBeThroughput += co.beThroughput;
            rollup.totalEnergy += co.energy;
        }
        rollup.totalCapOvershoot += epoch.telemetry.capOvershoot;
    }
    return outcome;
}

} // namespace poco::fleet
