#include "scen/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "runtime/parallel.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "wl/load_trace.hpp"

namespace poco::scen
{
namespace
{

/**
 * Stream-key bases for the non-cluster Rng::split children. Cluster
 * c uses stream key c directly, so everything else lives past 2^32 —
 * no fleet anywhere near that size can collide with them.
 */
constexpr std::uint64_t kRegionStream = 0x100000000ULL;
constexpr std::uint64_t kArrivalStream = 0x200000000ULL;
constexpr std::uint64_t kStormStream = 0x300000000ULL;

/** Offered load is floored here so FleetConfig accepts it. */
constexpr double kLoadFloor = 0.05;

/**
 * Synthesize the platform catalog: rank 0 is the paper's Xeon
 * E5-2650; each newer generation is wider, faster and hungrier (the
 * bench_ext_hetero "xeon-16c" progression). LLC geometry is held
 * fixed so every generation shares the CAT allocation grid.
 */
std::vector<sim::ServerSpec>
makeCatalog(int count)
{
    std::vector<sim::ServerSpec> catalog;
    catalog.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        sim::ServerSpec spec = sim::xeonE5_2650();
        if (i > 0) {
            spec.name = "xeon-gen" + std::to_string(i);
            spec.cores = 12 + 2 * i;
            spec.freqMax = GHz{2.2 + 0.1 * static_cast<double>(i)};
            spec.idlePower =
                Watts{50.0 + 2.5 * static_cast<double>(i)};
            spec.nominalActivePower =
                Watts{135.0 + 15.0 * static_cast<double>(i)};
        }
        spec.validate();
        catalog.push_back(std::move(spec));
    }
    return catalog;
}

/** Zipf CDF over ranks 1..n with exponent s (shared by clusters). */
std::vector<double>
zipfCdf(int n, double s)
{
    std::vector<double> cdf(static_cast<std::size_t>(n));
    double total = 0.0;
    for (int k = 1; k <= n; ++k) {
        total += std::pow(static_cast<double>(k), -s);
        cdf[static_cast<std::size_t>(k - 1)] = total;
    }
    for (double& c : cdf)
        c /= total;
    return cdf;
}

std::size_t
zipfRank(const std::vector<double>& cdf, double u)
{
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(
                                     cdf.size()) - 1));
}

/**
 * Instantiate the cluster's app set on @p platform: lcApps primaries
 * and beApps candidates drawn round-robin from the calibrated
 * registry starting at @p rotation, with BE normalization points
 * re-anchored to the platform geometry (the bench_ext_hetero
 * idiom). Names are suffixed on wrap-around so lcByName stays
 * unambiguous.
 */
wl::AppSet
makeApps(const sim::ServerSpec& platform, int lc_count, int be_count,
         int rotation)
{
    const std::vector<wl::LcAppParams> lc_pool =
        wl::defaultLcParams();
    const std::vector<wl::BeAppParams> be_pool =
        wl::defaultBeParams();

    wl::AppSet set;
    set.spec = platform;
    for (int i = 0; i < lc_count; ++i) {
        wl::LcAppParams params =
            lc_pool[(static_cast<std::size_t>(rotation + i)) %
                    lc_pool.size()];
        const auto wrap =
            static_cast<std::size_t>(i) / lc_pool.size();
        if (wrap > 0)
            params.name += "-" + std::to_string(wrap);
        set.lc.emplace_back(params, platform);
    }
    for (int i = 0; i < be_count; ++i) {
        wl::BeAppParams params =
            be_pool[(static_cast<std::size_t>(rotation + i)) %
                    be_pool.size()];
        const auto wrap =
            static_cast<std::size_t>(i) / be_pool.size();
        if (wrap > 0)
            params.name += "-" + std::to_string(wrap);
        params.normCores = platform.cores - 1;
        params.normWays = platform.llcWays - 2;
        set.be.emplace_back(params, platform);
    }
    return set;
}

} // namespace

Scenario
Scenario::generate(const ScenarioSpec& raw_spec,
                   runtime::ThreadPool* pool)
{
    const ScenarioSpec spec = raw_spec.validated();
    const Rng root(spec.seed);
    const std::vector<double> cdf =
        zipfCdf(spec.platformCount, spec.platformZipf);

    Scenario out;
    out.spec_ = spec;
    out.platforms_ = makeCatalog(spec.platformCount);

    // Correlated flash crowds: one seeded window set per region,
    // shared verbatim by every cluster striped into that region.
    std::vector<std::vector<wl::SpikeWindow>> region_windows(
        spec.regions);
    for (std::size_t r = 0; r < spec.regions; ++r) {
        Rng stream = root.split(kRegionStream + r);
        for (int k = 0; k < spec.flashCrowds; ++k) {
            const auto start = static_cast<SimTime>(
                stream.uniform() *
                static_cast<double>(spec.day - spec.flashDuration));
            region_windows[r].push_back(
                {start, start + spec.flashDuration});
        }
    }

    // Cluster synthesis: every slot is a pure function of
    // root.split(c) plus its region's shared windows, written
    // index-addressed — bit-identical for any thread count.
    out.clusters_.resize(spec.clusters);
    const auto epochs = static_cast<std::size_t>(spec.epochs);
    runtime::parallelFor(pool, spec.clusters, [&](std::size_t c) {
        Rng stream = root.split(c);
        const double u_platform = stream.uniform();
        const int rotation = stream.uniformInt(0, 1 << 20);
        const double phase =
            stream.uniform(0.0, std::max(spec.phaseJitter, 1e-12));
        const std::uint64_t jitter_seed = stream.nextU64();

        ClusterScenario cluster;
        cluster.index = c;
        cluster.platform = zipfRank(cdf, u_platform);
        cluster.region = c % spec.regions;
        cluster.apps = std::make_unique<wl::AppSet>(
            makeApps(out.platforms_[cluster.platform], spec.lcApps,
                     spec.beApps, rotation));

        const wl::LoadTrace trace = wl::LoadTrace::flashCrowd(
            wl::LoadTrace::diurnalJittered(
                spec.day, spec.diurnalLow, spec.diurnalHigh, phase,
                spec.jitterSigma, spec.jitterDwell, jitter_seed),
            region_windows[cluster.region], spec.flashMagnitude);
        cluster.epochLoads.reserve(epochs);
        for (std::size_t e = 0; e < epochs; ++e) {
            const auto t = static_cast<SimTime>(
                (static_cast<double>(2 * e + 1) /
                 static_cast<double>(2 * epochs)) *
                static_cast<double>(spec.day));
            cluster.epochLoads.push_back(
                std::clamp(trace.at(t), kLoadFloor, 1.0));
        }
        out.clusters_[c] = std::move(cluster);
    });

    // Flatten the per-cluster loads epoch-major (the
    // FleetConfig::withScenarioLoads layout).
    out.epochClusterLoads_.resize(epochs * spec.clusters);
    for (std::size_t e = 0; e < epochs; ++e)
        for (std::size_t c = 0; c < spec.clusters; ++c)
            out.epochClusterLoads_[e * spec.clusters + c] =
                out.clusters_[c].epochLoads[e];

    // Staggered BE arrival queue, lowered to control-plane events
    // and merged with one broadcast LoadShift marker per epoch (the
    // epoch's mean offered load) into a single totally-ordered log.
    std::vector<ctrl::ControlEvent> arrivals;
    {
        Rng stream = root.split(kArrivalStream);
        const double hours = static_cast<double>(spec.day) /
                             static_cast<double>(kHour);
        const auto count = static_cast<std::size_t>(
            std::llround(spec.beArrivalsPerHour * hours));
        const double slot = static_cast<double>(spec.day) /
                            static_cast<double>(count + 1);
        for (std::size_t i = 0; i < count; ++i) {
            const auto tick = static_cast<SimTime>(
                slot * static_cast<double>(i + 1) +
                stream.uniform() * slot * 0.5);
            arrivals.push_back({std::min(tick, spec.day - 1),
                                ctrl::EventKind::BeArrive, -1, 0.0});
        }
    }
    std::vector<ctrl::ControlEvent> markers;
    for (std::size_t e = 0; e < epochs; ++e) {
        double mean = 0.0;
        for (std::size_t c = 0; c < spec.clusters; ++c)
            mean += out.epochClusterLoads_[e * spec.clusters + c];
        mean /= static_cast<double>(spec.clusters);
        const auto tick = static_cast<SimTime>(
            (static_cast<double>(2 * e + 1) /
             static_cast<double>(2 * epochs)) *
            static_cast<double>(spec.day));
        markers.push_back(
            {tick, ctrl::EventKind::LoadShift, -1, mean});
    }
    out.beArrivals_ = ctrl::EventLog::merged(
        ctrl::EventLog::fromEvents(std::move(arrivals)),
        ctrl::EventLog::fromEvents(std::move(markers)));

    // Fault storms: seeded correlated bursts across the whole fleet,
    // hull-merged by fromWindows.
    const int fleet_servers = static_cast<int>(spec.clusters) *
                              spec.serversPerCluster;
    std::vector<fault::FaultWindow> storm_windows;
    for (int s = 0; s < spec.faultStorms; ++s) {
        Rng stream = root.split(kStormStream +
                                static_cast<std::uint64_t>(s));
        const auto start = static_cast<SimTime>(
            stream.uniform() *
            static_cast<double>(spec.day - spec.stormDuration));
        const std::vector<fault::FaultWindow> windows =
            fault::stormWindows(start, start + spec.stormDuration,
                                fleet_servers, spec.stormMagnitude,
                                stream.nextU64());
        storm_windows.insert(storm_windows.end(), windows.begin(),
                             windows.end());
    }
    out.faultStorm_ =
        fault::FaultPlan::fromWindows(std::move(storm_windows));

    // Fingerprint the emitted fleet (not the spec alone): any bit of
    // generated content changing must change the fingerprint.
    std::uint64_t h = fnv::kOffset;
    fnv::mixWord(h, spec.clusters);
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.serversPerCluster));
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.lcApps));
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.beApps));
    fnv::mixDouble(h, spec.platformZipf);
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.platformCount));
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.day));
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.epochs));
    fnv::mixDouble(h, spec.diurnalLow);
    fnv::mixDouble(h, spec.diurnalHigh);
    fnv::mixDouble(h, spec.phaseJitter);
    fnv::mixDouble(h, spec.jitterSigma);
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.jitterDwell));
    fnv::mixWord(h, spec.regions);
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.flashCrowds));
    fnv::mixDouble(h, spec.flashMagnitude);
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.flashDuration));
    fnv::mixDouble(h, spec.beArrivalsPerHour);
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.faultStorms));
    fnv::mixWord(h, static_cast<std::uint64_t>(spec.stormDuration));
    fnv::mixDouble(h, spec.stormMagnitude);
    fnv::mixWord(h, spec.seed);
    for (const sim::ServerSpec& platform : out.platforms_) {
        fnv::mixString(h, platform.name);
        fnv::mixWord(h, static_cast<std::uint64_t>(platform.cores));
        fnv::mixWord(h, static_cast<std::uint64_t>(platform.llcWays));
        fnv::mixDouble(h, platform.freqMax.value());
        fnv::mixDouble(h, platform.nominalActivePower.value());
    }
    for (const ClusterScenario& cluster : out.clusters_) {
        fnv::mixWord(h, cluster.platform);
        fnv::mixWord(h, cluster.region);
        for (const wl::LcApp& app : cluster.apps->lc)
            fnv::mixString(h, app.name());
        for (const wl::BeApp& app : cluster.apps->be)
            fnv::mixString(h, app.name());
        for (const double load : cluster.epochLoads)
            fnv::mixDouble(h, load);
    }
    fnv::mixWord(h, out.beArrivals_.fingerprint());
    fnv::mixWord(h, out.faultStorm_.fingerprint());
    out.fingerprint_ = h;
    return out;
}

std::vector<ScenarioServer>
Scenario::servers() const
{
    std::vector<ScenarioServer> out;
    out.reserve(clusters_.size() *
                static_cast<std::size_t>(spec_.serversPerCluster));
    for (const ClusterScenario& cluster : clusters_) {
        const std::size_t lc_count = cluster.apps->lc.size();
        for (int s = 0; s < spec_.serversPerCluster; ++s)
            out.push_back({cluster.apps.get(),
                           static_cast<std::size_t>(s) % lc_count,
                           Watts{}});
    }
    return out;
}

Scenario
ScenarioSpec::generate(runtime::ThreadPool* pool) const
{
    return Scenario::generate(*this, pool);
}

} // namespace poco::scen
