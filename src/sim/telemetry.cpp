#include "sim/telemetry.hpp"

#include <utility>

#include "util/check.hpp"

namespace poco::sim
{

TelemetryRecorder::TelemetryRecorder(std::size_t capacity)
    : capacity_(capacity)
{
    POCO_REQUIRE(capacity > 0, "telemetry capacity must be positive");
}

void
TelemetryRecorder::record(TelemetrySample sample)
{
    POCO_REQUIRE(samples_.empty() || sample.when >= samples_.back().when,
                 "telemetry samples must be time-ordered");
    if (samples_.size() == capacity_)
        samples_.pop_front();
    samples_.push_back(std::move(sample));
}

const TelemetrySample&
TelemetryRecorder::latest() const
{
    POCO_REQUIRE(!samples_.empty(), "no telemetry recorded yet");
    return samples_.back();
}

} // namespace poco::sim
