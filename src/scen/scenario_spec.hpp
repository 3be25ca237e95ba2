/**
 * @file
 * Declarative fleet-scenario specification (the input half of
 * poco::scen).
 *
 * A ScenarioSpec describes a whole synthetic fleet — how many
 * clusters, how platform generations are mixed, how offered load
 * moves over a day, which regions share flash crowds, how BE work
 * arrives, and what fault storms hit — in the same builder idiom as
 * FleetConfig: value type, chainable withX() setters that only
 * assign, and a validated() pass, the one home of every rule (the
 * per-field ranges and the cross-field invariants), that generation
 * runs first. The spec is pure data; expanding it into concrete
 * servers, traces, event logs and fault plans is Scenario::generate
 * (scenario.hpp), which is deterministic in spec.seed alone.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "util/check.hpp"
#include "util/units.hpp"

namespace poco::runtime
{
class ThreadPool;
}

namespace poco::scen
{

class Scenario;

/** Builder-style description of one synthetic fleet. */
struct ScenarioSpec
{
    /** Clusters in the fleet (the paper's studies use 100-5000). */
    std::size_t clusters = 100;

    /** Servers per cluster; all share the cluster's app set. */
    int serversPerCluster = 2;

    /** LC primaries instantiated per cluster (from the registry). */
    int lcApps = 1;

    /** BE candidates instantiated per cluster (from the registry). */
    int beApps = 2;

    /**
     * Zipf exponent of the platform-generation mix: rank-k platform
     * drawn with probability proportional to k^-s, so most clusters
     * land on the incumbent generation and a long tail runs newer
     * hardware.
     */
    double platformZipf = 1.1;

    /** Platform generations in the catalog (rank 0 = incumbent). */
    int platformCount = 4;

    /** Length of one simulated "day" of load. */
    SimTime day = 24 * kHour;

    /** Load epochs sampled uniformly across the day. */
    int epochs = 3;

    /** Diurnal trough / peak fractions and per-cluster phase spread. */
    double diurnalLow = 0.15;
    double diurnalHigh = 0.9;
    /** Max per-cluster peak shift, as a fraction of the day. */
    double phaseJitter = 0.25;

    /** Multiplicative load jitter (lognormal sigma, hold interval). */
    double jitterSigma = 0.05;
    SimTime jitterDwell = 5 * kMinute;

    /** Correlated spike groups; clusters are striped across regions. */
    std::size_t regions = 1;

    /** Flash crowds per region, their amplification, their length. */
    int flashCrowds = 0;
    double flashMagnitude = 0.5;
    SimTime flashDuration = 1 * kHour;

    /** Staggered BE job arrivals per simulated hour (whole fleet). */
    double beArrivalsPerHour = 0.0;

    /** Correlated fault storms across the day, and their shape. */
    int faultStorms = 0;
    SimTime stormDuration = 10 * kMinute;
    double stormMagnitude = 0.25;

    /** Root seed; every cluster stream is Rng::split from it. */
    std::uint64_t seed = 0;

    ScenarioSpec& withClusters(std::size_t value)
    {
        clusters = value;
        return *this;
    }

    ScenarioSpec& withServersPerCluster(int value)
    {
        serversPerCluster = value;
        return *this;
    }

    ScenarioSpec& withApps(int lc, int be)
    {
        lcApps = lc;
        beApps = be;
        return *this;
    }

    ScenarioSpec& withPlatformZipf(double skew)
    {
        platformZipf = skew;
        return *this;
    }

    ScenarioSpec& withPlatformCount(int value)
    {
        platformCount = value;
        return *this;
    }

    ScenarioSpec& withDay(SimTime value)
    {
        day = value;
        return *this;
    }

    ScenarioSpec& withEpochs(int value)
    {
        epochs = value;
        return *this;
    }

    ScenarioSpec& withRegions(std::size_t value)
    {
        regions = value;
        return *this;
    }

    ScenarioSpec& withFlashCrowds(int per_region, double magnitude,
                                  SimTime duration)
    {
        flashCrowds = per_region;
        flashMagnitude = magnitude;
        flashDuration = duration;
        return *this;
    }

    ScenarioSpec& withBeArrivals(double per_hour)
    {
        beArrivalsPerHour = per_hour;
        return *this;
    }

    ScenarioSpec& withFaultStorms(int count, SimTime duration,
                                  double magnitude)
    {
        faultStorms = count;
        stormDuration = duration;
        stormMagnitude = magnitude;
        return *this;
    }

    ScenarioSpec& withSeed(std::uint64_t value)
    {
        seed = value;
        return *this;
    }

    /**
     * Check every rule, the per-field ranges and the cross-field
     * invariants, and return the spec by value (the
     * FleetConfig::validated() idiom).
     *
     * @throws poco::FatalError when a field is out of range, regions
     *         exceed the cluster count (two regions would overlap on
     *         one cluster stripe), or a flash crowd / fault storm
     *         cannot fit inside the day.
     */
    ScenarioSpec validated() const
    {
        POCO_CHECK(clusters >= 1,
                   "scenario needs at least one cluster");
        POCO_CHECK(serversPerCluster >= 1,
                   "each cluster needs at least one server");
        POCO_CHECK(lcApps >= 1 && beApps >= 1,
                   "each cluster needs LC and BE apps");
        POCO_CHECK(platformZipf > 0.0,
                   "Zipf exponent must be positive");
        POCO_CHECK(platformCount >= 1,
                   "catalog needs at least one platform");
        POCO_CHECK(day > 0 && epochs >= 1,
                   "scenario needs a day and at least one epoch");
        POCO_CHECK(diurnalLow > 0.0 && diurnalLow <= diurnalHigh &&
                       diurnalHigh <= 1.0,
                   "diurnal range must satisfy 0 < low <= high <= 1");
        POCO_CHECK(phaseJitter >= 0.0 && phaseJitter <= 1.0,
                   "phase jitter is a fraction of the day");
        POCO_CHECK(jitterSigma >= 0.0 && jitterDwell > 0,
                   "jitter parameters out of range");
        POCO_CHECK(regions >= 1, "scenario needs at least one region");
        POCO_CHECK(regions <= clusters,
                   "regions exceed clusters: spike groups would "
                   "overlap on the same cluster stripe");
        POCO_CHECK(flashCrowds >= 0,
                   "flash-crowd count must be non-negative");
        POCO_CHECK(flashMagnitude >= 0.0,
                   "flash-crowd magnitude must be non-negative");
        POCO_CHECK(flashDuration > 0,
                   "flash-crowd duration must be positive");
        POCO_CHECK(flashCrowds == 0 || flashDuration < day,
                   "flash crowds must fit inside the day");
        POCO_CHECK(faultStorms >= 0, "storm count must be non-negative");
        POCO_CHECK(stormDuration > 0, "storm duration must be positive");
        POCO_CHECK(stormMagnitude >= 0.0,
                   "storm magnitude must be non-negative");
        POCO_CHECK(faultStorms == 0 || stormDuration < day,
                   "fault storms must fit inside the day");
        POCO_CHECK(beArrivalsPerHour >= 0.0,
                   "BE arrival rate must be non-negative");
        return *this;
    }

    /**
     * Expand this spec into a concrete Scenario (defined in
     * scenario.hpp). Deterministic in `seed` for any @p pool —
     * every cluster draws from Rng(seed).split(clusterIndex).
     */
    Scenario generate(runtime::ThreadPool* pool = nullptr) const;
};

} // namespace poco::scen
