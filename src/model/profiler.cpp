#include "model/profiler.hpp"

#include <cmath>
#include <functional>
#include <string>
#include <utility>

#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace poco::model
{

namespace
{

/** Smallest core count in the allocation grid. */
constexpr int kMinCores = 1;
/** Smallest LLC way count in the allocation grid. */
constexpr int kMinWays = 2;

/**
 * The (cores, ways) sweep in deterministic grid order. Cell index ==
 * position in this vector.
 */
std::vector<std::pair<int, int>>
allocationGrid(const ProfilerConfig& config, const sim::ServerSpec& spec)
{
    std::vector<std::pair<int, int>> grid;
    for (int c = kMinCores; c <= spec.cores; c += config.coreStep)
        for (int w = kMinWays; w <= spec.llcWays;
             w += config.wayStep)
            grid.emplace_back(c, w);
    return grid;
}

/** Noise-free measurement of one grid cell; perf <= 0 marks a
 *  rejected allocation. */
struct CellMeasure
{
    double perf = 0.0;
    double power = 0.0;
};

/**
 * Apply measurement noise to the measured cells, in grid order, from
 * one sequential stream. Drawing the noise serially (the measured
 * values themselves are deterministic, so only this stage touches the
 * RNG) keeps every sample bit-identical to the original serial sweep
 * for any worker count — including the generator's internal state
 * (Box-Muller caching makes the draw sequence stateful).
 *
 * @param skip_rejected Drop cells with perf <= 0 without drawing
 *        noise for them (the LC slack guard); the BE sweep keeps
 *        every cell.
 */
std::vector<ProfileSample>
applyNoise(const std::vector<std::pair<int, int>>& grid,
           const std::vector<CellMeasure>& measured,
           const ProfilerConfig& config, Rng rng, bool skip_rejected)
{
    std::vector<ProfileSample> samples;
    samples.reserve(grid.size());
    for (std::size_t cell = 0; cell < grid.size(); ++cell) {
        if (skip_rejected && measured[cell].perf <= 0.0)
            continue; // allocation cannot meet the guard at all
        ProfileSample s;
        s.r = {static_cast<double>(grid[cell].first),
               static_cast<double>(grid[cell].second)};
        s.perf = measured[cell].perf *
                 rng.noiseFactor(config.perfNoiseSigma);
        s.power = measured[cell].power *
                  rng.noiseFactor(config.powerNoiseSigma);
        samples.push_back(std::move(s));
    }
    return samples;
}

} // namespace

Profiler::Profiler(ProfilerConfig config) : config_(config)
{
    POCO_REQUIRE(config_.coreStep >= 1 && config_.wayStep >= 1,
                 "grid steps must be >= 1");
    POCO_REQUIRE(config_.minSlack >= 0.0 && config_.minSlack < 1.0,
                 "slack guard must be in [0, 1)");
    POCO_REQUIRE(config_.perfNoiseSigma >= 0.0 &&
                 config_.powerNoiseSigma >= 0.0,
                 "noise sigmas must be non-negative");
}

std::vector<ProfileSample>
Profiler::profileLc(const wl::LcApp& app,
                    runtime::ThreadPool* pool) const
{
    const sim::ServerSpec& spec = app.spec();
    const auto grid = allocationGrid(config_, spec);

    // The expensive stage — a 40-iteration bisection per cell against
    // the observable latency surface — is pure, so cells run in
    // parallel; the noise pass below is serial and sequenced.
    const auto measured = runtime::parallelMap(
        pool, grid.size(), [&](std::size_t cell) {
            const auto [c, w] = grid[cell];
            const sim::Allocation alloc{c, w, spec.freqMax, 1.0};

            // Highest load keeping slack >= minSlack. With the M/M/1
            // latency model this is analytic, but we search by
            // bisection against the observable latency surface so the
            // profiler works for any ground truth. The allocation is
            // fixed, so its capacity is computed once, not per step.
            const Rps cap = app.capacity(alloc);
            Rps lo, hi = cap;
            for (int iter = 0; iter < 40; ++iter) {
                const Rps mid = 0.5 * (lo + hi);
                if (app.slack99(mid, cap) >= config_.minSlack)
                    lo = mid;
                else
                    hi = mid;
            }
            const Rps guarded_load = lo;

            CellMeasure m;
            if (guarded_load <= Rps{})
                return m; // allocation cannot meet the guard at all
            m.perf = guarded_load.value();
            m.power = app.serverPower(guarded_load, alloc).value();
            return m;
        });

    auto samples = applyNoise(
        grid, measured, config_,
        Rng(config_.seed ^ std::hash<std::string>{}(app.name())),
        /*skip_rejected=*/true);
    POCO_ASSERT(!samples.empty(), "LC profile produced no samples");
    return samples;
}

std::vector<ProfileSample>
Profiler::profileBe(const wl::BeApp& app,
                    runtime::ThreadPool* pool) const
{
    const sim::ServerSpec& spec = app.spec();
    const auto grid = allocationGrid(config_, spec);

    const auto measured = runtime::parallelMap(
        pool, grid.size(), [&](std::size_t cell) {
            const auto [c, w] = grid[cell];
            const sim::Allocation alloc{c, w, spec.freqMax, 1.0};
            CellMeasure m;
            m.perf = app.throughput(alloc).value();
            m.power = (spec.idlePower + app.power(alloc)).value();
            return m;
        });

    auto samples = applyNoise(
        grid, measured, config_,
        Rng(config_.seed ^ std::hash<std::string>{}(app.name())),
        /*skip_rejected=*/false);
    POCO_ASSERT(!samples.empty(), "BE profile produced no samples");
    return samples;
}

} // namespace poco::model
