/**
 * @file
 * Application profiler (Section IV-A "Profiling").
 *
 * Sweeps the fine-grained allocation knobs (cores via taskset, LLC
 * ways via CAT) and records performance and power samples through the
 * same observable surface a real deployment exposes: maximum load
 * within the latency SLO for LC apps, throughput for BE apps, and the
 * server/socket power meter. Measurement noise is applied here —
 * the ground-truth workload models stay deterministic — so fitted
 * R-squared values land in the paper's 0.8-0.98 band.
 */

#pragma once

#include <vector>

#include "util/rng.hpp"
#include "wl/be_app.hpp"
#include "wl/lc_app.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::model
{

/** One profiled observation: resource vector, performance, power. */
struct ProfileSample
{
    /** Direct resources: r[0] = cores, r[1] = LLC ways. */
    std::vector<double> r;
    /** LC: max SLO-compliant load (rps); BE: throughput (units/s). */
    double perf = 0.0;
    /** Measured server power (watts), including static power. */
    double power = 0.0;
};

/** Index meanings within ProfileSample::r. */
constexpr std::size_t kResCores = 0;
constexpr std::size_t kResWays = 1;
constexpr std::size_t kNumResources = 2;

/** Profiling configuration. */
struct ProfilerConfig
{
    /**
     * Grid steps over the allocation space. The grid starts at
     * 1 core and 2 ways (constants in profiler.cpp).
     */
    int coreStep = 1;
    int wayStep = 2;

    /** Lognormal measurement noise (sigma of the underlying normal). */
    double perfNoiseSigma = 0.12;
    double powerNoiseSigma = 0.03;

    /**
     * Slack guard (Section IV-A): only keep LC samples whose tail
     * latency retains at least this slack versus the SLO. LC apps are
     * profiled at the highest load honouring the guard.
     */
    double minSlack = 0.10;

    /** Seed for the measurement-noise stream. */
    std::uint64_t seed = 42;
};

/** Sweeps allocations and collects (r, perf, power) samples. */
class Profiler
{
  public:
    explicit Profiler(ProfilerConfig config = {});

    const ProfilerConfig& config() const { return config_; }

    /**
     * Profile a latency-critical app over the core/way grid at max
     * frequency. Each sample's perf is the largest load that keeps
     * p99 slack >= minSlack on that allocation; power is measured
     * while serving that load.
     *
     * The per-cell load search runs on @p pool when non-null; the
     * measurement noise is drawn afterwards in a serial pass over the
     * grid, so the samples are bit-identical whether the grid is
     * swept serially (@p pool == nullptr) or in parallel, for any
     * worker count.
     */
    std::vector<ProfileSample>
    profileLc(const wl::LcApp& app,
              runtime::ThreadPool* pool = nullptr) const;

    /**
     * Profile a best-effort app over the same grid; perf is its
     * throughput, power the server draw while it runs alone. Same
     * pool/determinism contract as profileLc().
     */
    std::vector<ProfileSample>
    profileBe(const wl::BeApp& app,
              runtime::ThreadPool* pool = nullptr) const;

  private:
    ProfilerConfig config_;
};

} // namespace poco::model
