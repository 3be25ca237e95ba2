/**
 * @file
 * Telemetry epoch rollups: the zero-order-hold fold and the streaming
 * epoch aggregator.
 *
 * An EpochRollup is one window's compact aggregate (time-weighted
 * power and throughput integrals, cap-overshoot joules, worst p99).
 * A managed server run reports its statistics window as one, read
 * off the server's own integrals (server::ServerRunResult::steady);
 * the fleet combines those in fixed server order into cluster totals
 * and in canonical cluster order into the fleet total. foldTelemetry
 * computes the same rollup from a kept sample series.
 *
 * TelemetryAggregator serves the streaming control plane, whose
 * window is known only when the replay seals: each re-placement
 * appends a delta of samples to a server-indexed slot (slot
 * exclusivity, no locks), and sealEpoch() folds the filled buffers on
 * the coordinating thread in fixed server and cluster order.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/telemetry.hpp"
#include "util/units.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::sim
{

/** Aggregates of one epoch's telemetry (server, cluster, or fleet). */
struct EpochRollup
{
    /** Epoch window the rollup covers. */
    SimTime start = 0;
    SimTime end = 0;
    /**
     * Intervals integrated: sample holds of positive length inside
     * the window (summed across members on combine).
     */
    std::uint64_t samples = 0;
    /**
     * Time-weighted mean power over the window. Combining sums the
     * members, so a cluster/fleet rollup holds total mean draw.
     */
    Watts meanPower;
    /** Time-weighted mean BE throughput (summed on combine). */
    Rps meanBeThroughput;
    /** Integral of power over the window. */
    Joules energy;
    /** Integral of max(0, power - cap): budget violation severity. */
    Joules capOvershoot;
    /** Worst p99 latency seen in the window (seconds). */
    double maxLatencyP99 = 0.0;

    /** Fixed-order combine (member into aggregate). */
    EpochRollup& operator+=(const EpochRollup& other);
};

/**
 * Fold one server's time-ordered @p samples over [start, end)
 * against its power cap; end > start. Samples are zero-order-hold:
 * each holds until the next sample (or the window end), matching
 * PowerMeter's integration, and the sample at or before start holds
 * at the window open. Every hold of positive length inside the
 * window counts as one sample.
 */
EpochRollup foldTelemetry(const std::vector<TelemetrySample>& samples,
                          Watts cap, SimTime start, SimTime end);

/**
 * Streaming epoch aggregator.
 *
 * Threading contract: within an epoch, any task may call
 * appendDelta() for a server slot as long as no two tasks share a
 * slot; sealEpoch() and drain() belong to the coordinating thread,
 * which must join the epoch's tasks first (their writes become
 * visible through that join).
 */
class TelemetryAggregator
{
  public:
    /**
     * @param cluster_of_server cluster index for each server slot;
     *        its size fixes the fleet's server count.
     * @param clusters total cluster count (> every entry above).
     *
     * The last two parameters are ignored (the fold always runs
     * inline). They stay declared only because
     * benchmark/src/streaming.cpp:729-731 still passes a pool and a
     * mode.
     */
    TelemetryAggregator(std::vector<std::size_t> cluster_of_server,
                        std::size_t clusters,
                        runtime::ThreadPool* = nullptr, bool = false);

    TelemetryAggregator(const TelemetryAggregator&) = delete;
    TelemetryAggregator& operator=(const TelemetryAggregator&) =
        delete;

    std::size_t servers() const { return cluster_of_server_.size(); }
    std::size_t clusters() const { return clusters_; }

    /**
     * Append a heartbeat-cadence *delta* — a few samples pushed
     * mid-epoch — to the server's front buffer, folded against
     * @p cap (the last push's cap wins). Slot-exclusive: one writer
     * per server per epoch, which may push many times (the control
     * plane pushes one delta per re-placement); pushes are counted
     * so the streaming tests can assert the cadence. Samples must
     * arrive in non-decreasing time order across pushes.
     */
    void appendDelta(std::size_t server,
                     const std::vector<TelemetrySample>& samples,
                     Watts cap);

    /** Total appendDelta() calls since construction (all slots). */
    std::uint64_t deltaPushes() const { return delta_pushes_; }

    /**
     * Seal the current epoch over [start, end): fold the filled
     * buffers, store the result, and reset the front buffers for the
     * next epoch.
     */
    void sealEpoch(SimTime start, SimTime end);

    /** One sealed epoch's folded result. */
    struct EpochResult
    {
        /** Per-cluster rollups, canonical cluster order. */
        std::vector<EpochRollup> clusters;
        /** Fleet-wide rollup (clusters combined in order). */
        EpochRollup fleet;
    };

    /**
     * Collect every sealed epoch, in seal order. Leaves the
     * aggregator empty and reusable.
     */
    std::vector<EpochResult> drain();

  private:
    struct ServerBuffer
    {
        std::vector<TelemetrySample> samples;
        Watts cap;
    };

    std::vector<std::size_t> cluster_of_server_;
    std::size_t clusters_;
    std::uint64_t delta_pushes_ = 0;
    std::vector<ServerBuffer> front_;
    /** Folded epochs in seal order. */
    std::vector<EpochResult> sealed_;
};

} // namespace poco::sim
