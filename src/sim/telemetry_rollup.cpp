#include "sim/telemetry_rollup.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace poco::sim
{

EpochRollup&
EpochRollup::operator+=(const EpochRollup& other)
{
    if (samples == 0) {
        start = other.start;
        end = other.end;
    } else if (other.samples != 0) {
        start = std::min(start, other.start);
        end = std::max(end, other.end);
    }
    samples += other.samples;
    meanPower += other.meanPower;
    meanBeThroughput += other.meanBeThroughput;
    energy += other.energy;
    capOvershoot += other.capOvershoot;
    maxLatencyP99 = std::max(maxLatencyP99, other.maxLatencyP99);
    return *this;
}

EpochRollup
foldTelemetry(const std::vector<TelemetrySample>& samples, Watts cap,
              SimTime start, SimTime end)
{
    POCO_REQUIRE(end > start, "epoch window must be non-empty");
    EpochRollup rollup;
    rollup.start = start;
    rollup.end = end;
    double energy_j = 0.0;
    double overshoot_j = 0.0;
    double be_units = 0.0;
    for (std::size_t i = 0; i < samples.size() && samples[i].when < end;
         ++i) {
        const TelemetrySample& held = samples[i];
        const SimTime hold_from = std::max(held.when, start);
        const SimTime hold_to = i + 1 < samples.size()
                                    ? std::min(samples[i + 1].when, end)
                                    : end;
        if (hold_to <= hold_from)
            continue;
        const double dt = toSeconds(hold_to - hold_from);
        energy_j += held.power.value() * dt;
        overshoot_j += std::max(0.0, (held.power - cap).value()) * dt;
        be_units += held.beThroughput.value() * dt;
        rollup.maxLatencyP99 =
            std::max(rollup.maxLatencyP99, held.lcLatencyP99);
        ++rollup.samples;
    }
    const double window = toSeconds(end - start);
    rollup.energy = Joules{energy_j};
    rollup.capOvershoot = Joules{overshoot_j};
    rollup.meanPower = Watts{energy_j / window};
    rollup.meanBeThroughput = Rps{be_units / window};
    return rollup;
}

TelemetryAggregator::TelemetryAggregator(
    std::vector<std::size_t> cluster_of_server, std::size_t clusters,
    runtime::ThreadPool*, bool)
    : cluster_of_server_(std::move(cluster_of_server)),
      clusters_(clusters), front_(cluster_of_server_.size())
{
    POCO_REQUIRE(clusters_ > 0, "aggregator needs a cluster");
    for (const std::size_t c : cluster_of_server_)
        POCO_REQUIRE(c < clusters_,
                     "server mapped to a cluster out of range");
}

void
TelemetryAggregator::appendDelta(std::size_t server,
                                 const std::vector<TelemetrySample>& samples,
                                 Watts cap)
{
    POCO_REQUIRE(server < front_.size(),
                 "telemetry server slot out of range");
    ServerBuffer& slot = front_[server];
    if (!slot.samples.empty() && !samples.empty())
        POCO_REQUIRE(slot.samples.back().when <= samples.front().when,
                     "telemetry deltas must arrive in time order");
    ++delta_pushes_;
    slot.cap = cap;
    slot.samples.insert(slot.samples.end(), samples.begin(),
                        samples.end());
}

void
TelemetryAggregator::sealEpoch(SimTime start, SimTime end)
{
    EpochResult result;
    result.clusters.resize(clusters_);
    for (auto& rollup : result.clusters) {
        rollup.start = start;
        rollup.end = end;
    }
    // Per-server folds combine in server-index order, clusters
    // combine in canonical cluster order: the result is a pure
    // function of the filled buffers.
    for (std::size_t s = 0; s < front_.size(); ++s) {
        if (front_[s].samples.empty())
            continue;
        result.clusters[cluster_of_server_[s]] += foldTelemetry(
            front_[s].samples, front_[s].cap, start, end);
    }
    result.fleet.start = start;
    result.fleet.end = end;
    for (const EpochRollup& rollup : result.clusters)
        result.fleet += rollup;
    sealed_.push_back(std::move(result));
    front_.assign(front_.size(), ServerBuffer{});
}

std::vector<TelemetryAggregator::EpochResult>
TelemetryAggregator::drain()
{
    return std::exchange(sealed_, {});
}

} // namespace poco::sim
