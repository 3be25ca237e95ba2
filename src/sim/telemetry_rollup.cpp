#include "sim/telemetry_rollup.hpp"

#include <algorithm>
#include <chrono>
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

    // Samples are time-sorted; find the window by binary search —
    // the sample at or before `start` still holds at the window
    // open (zero-order hold).
    auto lo = std::lower_bound(
        samples.begin(), samples.end(), start,
        [](const TelemetrySample& s, SimTime t) {
            return s.when < t;
        });
    if (lo != samples.begin() && (lo == samples.end() ||
                                  lo->when > start))
        --lo;

    double energy_j = 0.0;
    double overshoot_j = 0.0;
    double be_units = 0.0;
    for (auto it = lo; it != samples.end() && it->when < end; ++it) {
        const SimTime hold_from = std::max(it->when, start);
        const SimTime hold_to =
            std::next(it) != samples.end()
                ? std::min(std::next(it)->when, end)
                : end;
        if (hold_to <= hold_from)
            continue;
        const double dt = toSeconds(hold_to - hold_from);
        energy_j += it->power.value() * dt;
        overshoot_j +=
            std::max(0.0, (it->power - cap).value()) * dt;
        be_units += it->beThroughput.value() * dt;
        rollup.maxLatencyP99 =
            std::max(rollup.maxLatencyP99, it->lcLatencyP99);
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
TelemetryAggregator::add(std::size_t server,
                         std::vector<TelemetrySample> samples,
                         Watts cap)
{
    POCO_REQUIRE(server < front_.size(),
                 "telemetry server slot out of range");
    ServerBuffer& slot = front_[server];
    slot.cap = cap;
    if (slot.samples.empty()) {
        slot.samples = std::move(samples);
    } else {
        slot.samples.insert(slot.samples.end(), samples.begin(),
                            samples.end());
    }
}

void
TelemetryAggregator::appendDelta(std::size_t server,
                                 std::vector<TelemetrySample> samples,
                                 Watts cap)
{
    POCO_REQUIRE(server < front_.size(),
                 "telemetry server slot out of range");
    if (!front_[server].samples.empty() && !samples.empty())
        POCO_REQUIRE(front_[server].samples.back().when <=
                         samples.front().when,
                     "telemetry deltas must arrive in time order");
    ++delta_pushes_;
    add(server, std::move(samples), cap);
}

void
TelemetryAggregator::sealEpoch(SimTime start, SimTime end)
{
    const auto t0 = std::chrono::steady_clock::now();
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
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    result.foldSeconds = elapsed.count();
    sealed_.push_back(std::move(result));
    front_.assign(front_.size(), ServerBuffer{});
}

std::vector<TelemetryAggregator::EpochResult>
TelemetryAggregator::drain()
{
    return std::exchange(sealed_, {});
}

} // namespace poco::sim
