/**
 * @file
 * Telemetry recorder.
 *
 * Today's private datacenters periodically collect per-application
 * performance and power metrics (the paper cites Dynamo and WSMeter).
 * A server manager samples every 100 ms only for a caller that reads
 * the series, such as a time-series plot
 * (ServerManagerConfig::keepTelemetry); the recorder keeps those
 * timestamped samples. A run's rollup (sim/telemetry_rollup.hpp)
 * needs no samples: it is read off the server's own statistics.
 */

#pragma once

#include <deque>

#include "sim/allocation.hpp"
#include "util/units.hpp"

namespace poco::sim
{

/** One telemetry sample for a server. */
struct TelemetrySample
{
    SimTime when = 0;

    /** Primary (latency-critical) application state. */
    Rps lcLoad;
    double lcLatencyP95 = 0.0;  ///< seconds
    double lcLatencyP99 = 0.0;  ///< seconds
    Allocation lcAlloc;

    /** Secondary (best-effort) application state. */
    Rps beThroughput;
    Allocation beAlloc;

    /** Server power draw at the sample instant. */
    Watts power;
};

/** Bounded in-memory time series of telemetry samples. */
class TelemetryRecorder
{
  public:
    /** @param capacity Maximum retained samples (FIFO eviction). */
    explicit TelemetryRecorder(std::size_t capacity = 1 << 20);

    /** Append a sample; timestamps must be non-decreasing. */
    void record(TelemetrySample sample);

    std::size_t size() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    const TelemetrySample& latest() const;

    const std::deque<TelemetrySample>& all() const { return samples_; }

  private:
    std::size_t capacity_;
    std::deque<TelemetrySample> samples_;
};

} // namespace poco::sim
