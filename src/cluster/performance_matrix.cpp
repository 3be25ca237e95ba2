#include "cluster/performance_matrix.hpp"

#include "model/demand.hpp"
#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace poco::cluster
{

namespace
{

void
validateInputs(const std::vector<BeCandidateModel>& be,
               const std::vector<LcServerModel>& lc,
               const MatrixConfig& config)
{
    POCO_REQUIRE(!be.empty() && !lc.empty(),
                 "matrix needs at least one BE and one LC entry");
    POCO_REQUIRE(!config.loadPoints.empty(),
                 "matrix needs at least one load point");
}

PerformanceMatrix
namedMatrix(const std::vector<BeCandidateModel>& be,
            const std::vector<LcServerModel>& lc)
{
    PerformanceMatrix matrix;
    for (const auto& b : be)
        matrix.beNames.push_back(b.name);
    for (const auto& l : lc)
        matrix.lcNames.push_back(l.name);
    matrix.resize(be.size(), lc.size());
    return matrix;
}

/** Spare capacity beside one LC at one load point; cores/ways < 1 or
 *  power <= 0 encode "no spare" (including an infeasible plan). */
struct SpareCapacity
{
    Watts power;
    int cores = 0;
    int ways = 0;
};

} // namespace

double
estimateCellAtLoad(const BeCandidateModel& be, const LcServerModel& lc,
                   const sim::ServerSpec& spec, double load_fraction,
                   double headroom)
{
    POCO_REQUIRE(load_fraction > 0.0 && load_fraction <= 1.0,
                 "load fraction must be in (0, 1]");
    const double target =
        (load_fraction * lc.peakLoad * headroom).value();
    const auto plan =
        model::minPowerAllocationFor(lc.utility, target, spec);
    if (!plan)
        return 0.0; // LC needs the whole machine (or more): no spare

    const int spare_cores = spec.cores - plan->alloc.cores;
    const int spare_ways = spec.llcWays - plan->alloc.ways;
    const Watts spare_power =
        lc.powerCap - plan->modeledPower;
    if (spare_cores < 1 || spare_ways < 1 || spare_power <= Watts{})
        return 0.0;
    return model::estimateBePerformance(be.utility, spare_power,
                                        spare_cores, spare_ways);
}

PerformanceMatrix
buildPerformanceMatrix(const std::vector<BeCandidateModel>& be,
                       const std::vector<LcServerModel>& lc,
                       const sim::ServerSpec& spec,
                       const MatrixConfig& config,
                       runtime::ThreadPool* pool)
{
    validateInputs(be, lc, config);
    for (const double load : config.loadPoints)
        POCO_REQUIRE(load > 0.0 && load <= 1.0,
                     "load fraction must be in (0, 1]");

    PerformanceMatrix matrix = namedMatrix(be, lc);
    const std::size_t n_loads = config.loadPoints.size();

    // Stage 1 — per-LC spare capacity at every load point. The
    // lattice grid depends only on the LC utility, so it is built
    // once per server (one batched log/exp sweep per resource
    // column) and scanned once per load point. Each server's column
    // of spares is an independent slot, so servers fan out in
    // parallel without affecting the result.
    const auto spares = runtime::parallelMap(
        pool, lc.size(), [&](std::size_t j) {
            const model::AllocationGrid grid(lc[j].utility, spec);
            std::vector<SpareCapacity> out(n_loads);
            for (std::size_t l = 0; l < n_loads; ++l) {
                const double target = (config.loadPoints[l] *
                                       lc[j].peakLoad *
                                       config.headroom)
                                          .value();
                const auto plan = grid.minPowerFor(target);
                if (!plan)
                    continue; // no spare at this load
                out[l].cores = spec.cores - plan->alloc.cores;
                out[l].ways = spec.llcWays - plan->alloc.ways;
                out[l].power = lc[j].powerCap - plan->modeledPower;
            }
            return out;
        });

    // Stage 2 — cells. Only the BE-side estimate remains per
    // (BE, LC, load); load points sum in the scalar reference's
    // fixed order, so every cell is bit-identical to it.
    runtime::parallelFor(
        pool, matrix.rows() * matrix.cols(), [&](std::size_t cell) {
            const std::size_t i = cell / matrix.cols();
            const std::size_t j = cell % matrix.cols();
            double sum = 0.0;
            for (std::size_t l = 0; l < n_loads; ++l) {
                const SpareCapacity& s = spares[j][l];
                sum += (s.cores < 1 || s.ways < 1 ||
                        s.power <= Watts{})
                           ? 0.0
                           : model::estimateBePerformance(
                                 be[i].utility, s.power, s.cores,
                                 s.ways);
            }
            matrix(i, j) = sum / static_cast<double>(n_loads);
        });
    return matrix;
}

PerformanceMatrix
buildPerformanceMatrixScalar(const std::vector<BeCandidateModel>& be,
                             const std::vector<LcServerModel>& lc,
                             const sim::ServerSpec& spec,
                             const MatrixConfig& config,
                             runtime::ThreadPool* pool)
{
    validateInputs(be, lc, config);

    PerformanceMatrix matrix = namedMatrix(be, lc);
    // One task per cell; each writes only its own slot and sums its
    // load points in a fixed order, so the matrix is bit-identical
    // for any worker count.
    runtime::parallelFor(
        pool, matrix.rows() * matrix.cols(), [&](std::size_t cell) {
            const std::size_t i = cell / matrix.cols();
            const std::size_t j = cell % matrix.cols();
            double sum = 0.0;
            for (double load : config.loadPoints)
                sum += estimateCellAtLoad(be[i], lc[j], spec, load,
                                          config.headroom);
            matrix(i, j) =
                sum / static_cast<double>(config.loadPoints.size());
        });
    return matrix;
}

} // namespace poco::cluster
