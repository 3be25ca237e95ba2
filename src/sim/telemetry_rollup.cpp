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

TelemetryFold::TelemetryFold(Watts cap, SimTime start)
    : cap_(cap), start_(start)
{}

void
TelemetryFold::restart(SimTime start)
{
    start_ = start;
    energy_j_ = 0.0;
    overshoot_j_ = 0.0;
    be_units_ = 0.0;
    max_p99_ = 0.0;
    samples_ = 0;
}

void
TelemetryFold::add(const TelemetrySample& sample)
{
    if (holding_)
        foldHeld(sample.when);
    held_ = sample;
    holding_ = true;
}

void
TelemetryFold::foldHeld(SimTime until)
{
    const SimTime hold_from = std::max(held_.when, start_);
    if (until <= hold_from)
        return;
    const double dt = toSeconds(until - hold_from);
    energy_j_ += held_.power.value() * dt;
    overshoot_j_ += std::max(0.0, (held_.power - cap_).value()) * dt;
    be_units_ += held_.beThroughput.value() * dt;
    max_p99_ = std::max(max_p99_, held_.lcLatencyP99);
    ++samples_;
}

EpochRollup
TelemetryFold::finish(SimTime end) const
{
    POCO_REQUIRE(end > start_, "epoch window must be non-empty");
    POCO_REQUIRE(!holding_ || held_.when <= end,
                 "telemetry sample past the window end");
    TelemetryFold closed = *this;
    if (closed.holding_)
        closed.foldHeld(end);
    const double window = toSeconds(end - start_);
    EpochRollup rollup;
    rollup.start = start_;
    rollup.end = end;
    rollup.samples = closed.samples_;
    rollup.energy = Joules{closed.energy_j_};
    rollup.capOvershoot = Joules{closed.overshoot_j_};
    rollup.meanPower = Watts{closed.energy_j_ / window};
    rollup.meanBeThroughput = Rps{closed.be_units_ / window};
    rollup.maxLatencyP99 = closed.max_p99_;
    return rollup;
}

EpochRollup
foldTelemetry(const std::vector<TelemetrySample>& samples, Watts cap,
              SimTime start, SimTime end)
{
    TelemetryFold fold(cap, start);
    for (const TelemetrySample& sample : samples) {
        if (sample.when >= end)
            break;
        fold.add(sample);
    }
    return fold.finish(end);
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
