/**
 * @file
 * Microbenchmarks of Pocolo's hot paths (google-benchmark), plus the
 * SoA/vectorization before-vs-after gate.
 *
 * The paper claims the analytic allocation decision is "a constant
 * time operation (less than a millisecond)"; BM_MinPowerAllocation
 * (the scalar oracle), BM_MinPowerAllocationGrid (the grid search
 * PomController runs whenever its demand target moves) and
 * BM_ClosedFormDemand verify our implementation meets that budget
 * with wide margin.
 *
 * The default run executes the gate: each kernel is timed against its
 * predecessor and checked bit-identical — matrix-build against the
 * scalar reference, pivot elimination serial against row-parallel,
 * incremental-resolve against a cold solve, pom-decision (one
 * AllocationGrid build plus a minPowerFor per target) against the
 * scalar minPowerAllocationFor scan over the same targets; results
 * land in BENCH_micro.json (argv[1] overrides the path) and any
 * divergence — or a matrix-build speedup below 1.5x at >= 64 cells —
 * exits 1. Pass --benchmarks to also run the google-benchmark suite.
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "cluster/incremental.hpp"
#include "cluster/performance_matrix.hpp"
#include "cluster/placement.hpp"
#include "common.hpp"
#include "math/hungarian.hpp"
#include "math/regression.hpp"
#include "math/simplex.hpp"
#include "math/solver_cache.hpp"
#include "model/demand.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace poco;

namespace
{

void
BM_ClosedFormDemand(benchmark::State& state)
{
    const auto& model = bench::context().lcModel("sphinx");
    for (auto _ : state) {
        auto r = model.demand(Watts{150.0});
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_ClosedFormDemand);

void
BM_BoxedDemand(benchmark::State& state)
{
    const auto& model = bench::context().beModel("graph");
    const std::vector<double> caps = {6.0, 10.0};
    for (auto _ : state) {
        auto r = model.demandBoxed(Watts{120.0}, caps);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_BoxedDemand);

void
BM_MinPowerAllocation(benchmark::State& state)
{
    auto& ctx = bench::context();
    const auto& model = ctx.lcModel("xapian");
    const double target =
        (0.5 * ctx.apps.lcByName("xapian").peakLoad()).value();
    for (auto _ : state) {
        auto plan = model::minPowerAllocationFor(model, target,
                                                 ctx.apps.spec);
        benchmark::DoNotOptimize(plan);
    }
}
BENCHMARK(BM_MinPowerAllocation);

void
BM_MinPowerAllocationGrid(benchmark::State& state)
{
    auto& ctx = bench::context();
    const auto& model = ctx.lcModel("xapian");
    const double target =
        (0.5 * ctx.apps.lcByName("xapian").peakLoad()).value();
    const model::AllocationGrid grid(model, ctx.apps.spec);
    for (auto _ : state) {
        auto plan = grid.minPowerFor(target);
        benchmark::DoNotOptimize(plan);
    }
}
BENCHMARK(BM_MinPowerAllocationGrid);

void
BM_UtilityFit(benchmark::State& state)
{
    auto& ctx = bench::context();
    const auto samples =
        ctx.profiler.profileBe(ctx.apps.beByName("lstm"));
    for (auto _ : state) {
        auto model = ctx.fitter.fit(samples);
        benchmark::DoNotOptimize(model);
    }
}
BENCHMARK(BM_UtilityFit);

void
BM_ProfileBe(benchmark::State& state)
{
    auto& ctx = bench::context();
    const auto& app = ctx.apps.beByName("rnn");
    for (auto _ : state) {
        auto samples = ctx.profiler.profileBe(app);
        benchmark::DoNotOptimize(samples);
    }
}
BENCHMARK(BM_ProfileBe);

void
BM_Hungarian(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(42);
    std::vector<double> value(n * n);
    for (double& v : value)
        v = rng.uniform(0.0, 100.0);
    const math::MatrixView view{value, n, n};
    for (auto _ : state) {
        auto a = math::solveAssignmentMax(view);
        benchmark::DoNotOptimize(a);
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Hungarian)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void
BM_AssignmentLp(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(43);
    std::vector<double> value(n * n);
    for (double& v : value)
        v = rng.uniform(0.0, 100.0);
    const math::MatrixView view{value, n, n};
    for (auto _ : state) {
        auto a = math::solveAssignmentLp(view);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_AssignmentLp)->RangeMultiplier(2)->Range(4, 16);

/**
 * Solver-kernel microbenchmarks. `n` is the assignment dimension, so
 * the tableau has the n-assignment LP's shape: 2n constraint rows
 * over n^2 + 2n columns. Each "item" is one simplex step of the
 * shipped SimplexTableau: a pivot, which maintains the reduced-cost
 * row, followed by a Dantzig pricing pass, a single O(ncols) scan of
 * that row. Timings print on any host (including 1-core).
 */

/** Assignment-LP-shaped dimensions for dimension n. */
constexpr std::size_t
tableauRows(std::size_t n)
{
    return 2 * n;
}
constexpr std::size_t
tableauCols(std::size_t n)
{
    return n * n + 2 * n;
}

double
tableauFill(std::size_t r, std::size_t c)
{
    // Deterministic pseudo-random in [0.5, 2.5): keeps every pivot
    // element comfortably away from zero.
    const std::uint64_t k = (r * 2654435761u) ^ (c * 40503u);
    return 0.5 + static_cast<double>(k % 1024) / 512.0;
}

void
BM_SimplexPivotFlat(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::size_t m = tableauRows(n);
    const std::size_t ncols = tableauCols(n);
    math::SimplexTableau pristine(m, ncols);
    for (std::size_t r = 0; r <= m; ++r) {
        for (std::size_t c = 0; c < ncols; ++c)
            pristine.at(r, c) = tableauFill(r, c);
        pristine.rhs(r) = 1.0;
    }
    math::SimplexTableau scratch = pristine;
    for (auto _ : state) {
        scratch = pristine;
        for (std::size_t k = 0; k < 4; ++k) {
            const std::size_t col = k * (ncols / m);
            // Earlier eliminations can leave a tiny pivot element;
            // reset it so every run pivots on the same values.
            if (std::abs(scratch.at(k, col)) < 0.5)
                scratch.at(k, col) = 1.5;
            scratch.pivot(k, col);
            benchmark::DoNotOptimize(scratch.priceDantzig());
        }
        benchmark::DoNotOptimize(scratch.rhs(0));
    }
    state.SetItemsProcessed(state.iterations() * 4);
}
BENCHMARK(BM_SimplexPivotFlat)->Arg(4)->Arg(16)->Arg(64)->Arg(128);

math::SimplexTableau
pricingTableau(std::size_t n)
{
    const std::size_t m = tableauRows(n);
    const std::size_t ncols = tableauCols(n);
    math::SimplexTableau t(m, ncols);
    for (std::size_t c = 0; c < ncols; ++c)
        t.at(m, c) = tableauFill(m, c) - 2.4; // mostly negative
    t.at(m, ncols - 3) = 9.0; // a clear winner near the tail
    return t;
}

void
BM_SimplexPricingSerial(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const math::SimplexTableau t = pricingTableau(n);
    for (auto _ : state) {
        auto j = t.priceDantzig();
        benchmark::DoNotOptimize(j);
    }
}
BENCHMARK(BM_SimplexPricingSerial)->Arg(4)->Arg(16)->Arg(64)->Arg(128);

void
BM_SolverCacheHit(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(45);
    std::vector<double> value(n * n);
    for (double& v : value)
        v = rng.uniform(0.0, 100.0);
    const math::MatrixView view{value, n, n};
    math::AssignmentCache cache;
    cache.insert(view, math::solveAssignmentMax(view));
    for (auto _ : state) {
        auto hit = cache.lookup(view);
        benchmark::DoNotOptimize(hit);
    }
}
BENCHMARK(BM_SolverCacheHit)->Arg(16)->Arg(64);

void
BM_SolverCacheMiss(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(46);
    std::vector<double> value(n * n);
    for (double& v : value)
        v = rng.uniform(0.0, 100.0);
    const math::MatrixView view{value, n, n};
    math::AssignmentCache cache; // empty: every probe is a miss
    for (auto _ : state) {
        auto miss = cache.lookup(view);
        benchmark::DoNotOptimize(miss);
    }
}
BENCHMARK(BM_SolverCacheMiss)->Arg(16)->Arg(64);

/**
 * The control plane's hot path: one server column re-priced, then a
 * re-place. The incremental variant runs the Cached/Repair/WarmLp
 * ladder; the cold variant is the batch placeWithFallback the ladder
 * replaces. Same perturbation stream in both, so the gap is solver
 * work, not setup.
 */
void
BM_IncrementalResolve(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(47);
    cluster::PerformanceMatrix matrix;
    matrix.resize(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);
    cluster::IncrementalPlacer placer;
    // Warm-up solve; the outcome itself is intentionally unused.
    (void)placer.resolve(matrix, cluster::PlacementDelta::shape());
    std::size_t col = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            matrix(i, col) = rng.uniform(0.0, 100.0);
        auto placed =
            placer.resolve(matrix, cluster::PlacementDelta::column(col));
        benchmark::DoNotOptimize(placed);
        col = (col + 1) % n;
    }
}
BENCHMARK(BM_IncrementalResolve)->Arg(16)->Arg(64);

void
BM_ColdResolve(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(47);
    cluster::PerformanceMatrix matrix;
    matrix.resize(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);
    std::size_t col = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < n; ++i)
            matrix(i, col) = rng.uniform(0.0, 100.0);
        auto placed = cluster::placeWithFallback(matrix);
        benchmark::DoNotOptimize(placed);
        col = (col + 1) % n;
    }
}
BENCHMARK(BM_ColdResolve)->Arg(16)->Arg(64);

void
BM_OlsFit(benchmark::State& state)
{
    Rng rng(44);
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> x(n * 2);
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i * 2] = rng.uniform(0.0, 10.0);
        x[i * 2 + 1] = rng.uniform(0.0, 10.0);
        y[i] = 1.0 + 2.0 * x[i * 2] + 3.0 * x[i * 2 + 1] +
               rng.normal(0.0, 0.1);
    }
    const math::MatrixView design{x, n, 2};
    for (auto _ : state) {
        auto fit = math::fitOls(design, y);
        benchmark::DoNotOptimize(fit);
    }
}
BENCHMARK(BM_OlsFit)->Arg(120)->Arg(1000);

void
BM_PerformanceMatrix(benchmark::State& state)
{
    auto& ctx = bench::context();
    std::vector<cluster::BeCandidateModel> be;
    std::vector<cluster::LcServerModel> lc;
    for (const auto& app : ctx.apps.be)
        be.push_back({app.name(), ctx.beModel(app.name())});
    for (const auto& app : ctx.apps.lc)
        lc.push_back({app.name(), ctx.lcModel(app.name()),
                      app.peakLoad(), app.provisionedPower()});
    for (auto _ : state) {
        auto matrix =
            cluster::buildPerformanceMatrix(be, lc, ctx.apps.spec);
        benchmark::DoNotOptimize(matrix);
    }
}
BENCHMARK(BM_PerformanceMatrix);

void
BM_RngSplit(benchmark::State& state)
{
    const Rng parent(42);
    std::uint64_t stream = 0;
    for (auto _ : state) {
        auto child = parent.split(stream++);
        benchmark::DoNotOptimize(child);
    }
}
BENCHMARK(BM_RngSplit);

/** Dispatch overhead of a pooled index-space loop. */
void
BM_ParallelFor(benchmark::State& state)
{
    runtime::ThreadPool pool(4);
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        std::atomic<std::uint64_t> sum{0};
        runtime::parallelFor(&pool, n, [&sum](std::size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        benchmark::DoNotOptimize(sum.load());
    }
}
BENCHMARK(BM_ParallelFor)->Arg(64)->Arg(4096);

// ---------------------------------------------------------------
// The SoA/vectorization gate: before/after columns per kernel, each
// "after" checked bit-identical to its scalar predecessor (and, where
// a pooled path exists, across thread counts).
// ---------------------------------------------------------------

/** Wall-clock seconds of one invocation. */
template <typename F>
double
timedSeconds(F&& fn)
{
    const auto begin = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - begin)
        .count();
}

/** Best-of-@p reps wall-clock seconds (quiets scheduler noise). */
template <typename F>
double
bestOf(int reps, F&& fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r)
        best = std::min(best, timedSeconds(fn));
    return best;
}

struct GateRow
{
    std::string kernel;
    std::size_t size = 0;
    double beforeSeconds = 0.0;
    double afterSeconds = 0.0;
    bool identical = true;
};

bool
matricesIdentical(const cluster::PerformanceMatrix& a,
                  const cluster::PerformanceMatrix& b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j)
            if (a(i, j) != b(i, j))
                return false;
    return true;
}

/**
 * Matrix build, 64 cells (the paper's 4x4 archetypes replicated to
 * 8x8): batched SoA build vs the retained scalar reference, both
 * serial; identity also checked against the 4-worker batched build.
 */
GateRow
gateMatrixBuild(runtime::ThreadPool& pool)
{
    auto& ctx = bench::context();
    std::vector<cluster::BeCandidateModel> be;
    std::vector<cluster::LcServerModel> lc;
    for (int rep = 0; rep < 2; ++rep) {
        for (const auto& app : ctx.apps.be)
            be.push_back({app.name() + "-" + std::to_string(rep),
                          ctx.beModel(app.name())});
        for (const auto& app : ctx.apps.lc)
            lc.push_back({app.name() + "-" + std::to_string(rep),
                          ctx.lcModel(app.name()), app.peakLoad(),
                          app.provisionedPower()});
    }

    GateRow row;
    row.kernel = "matrix-build";
    row.size = be.size() * lc.size();

    cluster::PerformanceMatrix scalar;
    cluster::PerformanceMatrix batched;
    cluster::PerformanceMatrix pooled;
    row.beforeSeconds = bestOf(3, [&] {
        scalar = cluster::buildPerformanceMatrixScalar(
            be, lc, ctx.apps.spec);
    });
    row.afterSeconds = bestOf(3, [&] {
        batched =
            cluster::buildPerformanceMatrix(be, lc, ctx.apps.spec);
    });
    pooled = cluster::buildPerformanceMatrix(be, lc, ctx.apps.spec,
                                             {}, &pool);
    row.identical = matricesIdentical(scalar, batched) &&
                    matricesIdentical(scalar, pooled);
    return row;
}

/**
 * Pivot row-elimination at n=64 (a 129 x 4225 tableau, past the
 * solver's fan-out cutoff): the serial flat pivot vs the same pivot
 * with a 4-worker pool, checked bitwise over the full tableau + rhs.
 */
GateRow
gateElimination(runtime::ThreadPool& pool)
{
    constexpr std::size_t n = 64;
    const std::size_t m = tableauRows(n);
    const std::size_t ncols = tableauCols(n);

    math::SimplexTableau pristine(m, ncols);
    for (std::size_t r = 0; r <= m; ++r) {
        for (std::size_t c = 0; c < ncols; ++c)
            pristine.at(r, c) = tableauFill(r, c);
        pristine.rhs(r) = 1.0;
    }
    const auto pivotSequence = [&](math::SimplexTableau& t,
                                   const math::LpOptions& options) {
        t = pristine;
        for (std::size_t k = 0; k < 4; ++k) {
            const std::size_t col = k * (ncols / m);
            if (std::abs(t.at(k, col)) < 0.5)
                t.at(k, col) = 1.5;
            t.pivot(k, col, options);
        }
    };

    GateRow row;
    row.kernel = "elimination";
    row.size = m * ncols;

    math::SimplexTableau serial = pristine;
    row.beforeSeconds =
        bestOf(3, [&] { pivotSequence(serial, math::LpOptions{}); });
    math::SimplexTableau pooled = pristine;
    row.afterSeconds =
        bestOf(3, [&] { pivotSequence(pooled, math::LpOptions{&pool}); });

    for (std::size_t r = 0; r <= m && row.identical; ++r)
        for (std::size_t c = 0; c < pooled.stride(); ++c)
            if (serial.row(r)[c] != pooled.row(r)[c])
                row.identical = false;
    return row;
}

/**
 * Per-event re-place at n=64: the incremental ladder vs the cold
 * batch path it replaces, same perturbation stream, assignments
 * checked equal every round.
 */
GateRow
gateIncrementalResolve()
{
    constexpr std::size_t n = 64;
    Rng rng(48);
    cluster::PerformanceMatrix matrix;
    matrix.resize(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            matrix(i, j) = rng.uniform(0.0, 100.0);

    cluster::IncrementalPlacer placer;
    // Warm-up solve; the outcome itself is intentionally unused.
    (void)placer.resolve(matrix, cluster::PlacementDelta::shape());

    GateRow row;
    row.kernel = "incremental-resolve";
    row.size = n;
    constexpr int kRounds = 8;
    for (int round = 0; round < kRounds; ++round) {
        const auto col = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(n) - 1));
        for (std::size_t i = 0; i < n; ++i)
            matrix(i, col) = rng.uniform(0.0, 100.0);

        Outcome<std::vector<int>> inc;
        row.afterSeconds += timedSeconds([&] {
            inc = placer.resolve(matrix,
                                 cluster::PlacementDelta::column(col));
        });
        Outcome<std::vector<int>> cold;
        row.beforeSeconds += timedSeconds(
            [&] { cold = cluster::placeWithFallback(matrix); });
        if (inc.value != cold.value)
            row.identical = false;
    }
    return row;
}

bool
plansIdentical(const std::optional<model::AllocationPlan>& a,
               const std::optional<model::AllocationPlan>& b)
{
    if (a.has_value() != b.has_value())
        return false;
    return !a || (a->alloc == b->alloc &&
                  a->modeledPower.value() == b->modeledPower.value() &&
                  a->modeledPerf == b->modeledPerf);
}

/**
 * POM's control decision over a 10-minute run's worth of targets,
 * 0.2% to 120% of the primary's peak: the scalar scan per target vs
 * one AllocationGrid build plus minPowerFor per target, every plan
 * checked bit-identical.
 */
GateRow
gatePomDecision()
{
    auto& ctx = bench::context();
    const auto& model = ctx.lcModel("xapian");
    const double peak = ctx.apps.lcByName("xapian").peakLoad().value();
    constexpr std::size_t kTargets = 600;
    std::vector<double> targets(kTargets);
    for (std::size_t k = 0; k < kTargets; ++k)
        targets[k] = 1.2 * peak * static_cast<double>(k + 1) /
                     static_cast<double>(kTargets);

    GateRow row;
    row.kernel = "pom-decision";
    row.size = kTargets;

    std::vector<std::optional<model::AllocationPlan>> scalar(kTargets);
    std::vector<std::optional<model::AllocationPlan>> grid(kTargets);
    row.beforeSeconds = bestOf(3, [&] {
        for (std::size_t k = 0; k < kTargets; ++k)
            scalar[k] = model::minPowerAllocationFor(model, targets[k],
                                                     ctx.apps.spec);
    });
    row.afterSeconds = bestOf(3, [&] {
        const model::AllocationGrid lattice(model, ctx.apps.spec);
        for (std::size_t k = 0; k < kTargets; ++k)
            grid[k] = lattice.minPowerFor(targets[k]);
    });
    for (std::size_t k = 0; k < kTargets; ++k)
        row.identical = row.identical && plansIdentical(scalar[k], grid[k]);
    return row;
}

int
runGate(const std::string& out_path)
{
    bench::banner(
        "micro: SoA gate",
        "vectorized kernels vs their scalar predecessors",
        "each kernel bit-identical to its scalar predecessor for any "
        "thread count; batched matrix build >= 1.5x at >= 64 cells");

    constexpr double kMinMatrixSpeedup = 1.5;
    runtime::ThreadPool pool(4);

    std::vector<GateRow> rows;
    rows.push_back(gateMatrixBuild(pool));
    rows.push_back(gateElimination(pool));
    rows.push_back(gateIncrementalResolve());
    rows.push_back(gatePomDecision());

    bool pass = true;
    TextTable table({"kernel", "size", "before s", "after s",
                     "speedup", "identical"});
    bench::Json kernels = bench::Json::array();
    for (const GateRow& row : rows) {
        const double speedup = row.afterSeconds > 0.0
                                   ? row.beforeSeconds /
                                         row.afterSeconds
                                   : 0.0;
        pass = pass && row.identical;
        if (!row.identical)
            std::printf("  divergence: %s is not bit-identical to "
                        "its scalar predecessor\n",
                        row.kernel.c_str());
        if (row.kernel == "matrix-build" && row.size >= 64 &&
            speedup < kMinMatrixSpeedup) {
            pass = false;
            std::printf("  gate miss: matrix-build speedup %.2f < "
                        "%.1f at %zu cells\n",
                        speedup, kMinMatrixSpeedup, row.size);
        }
        table.addRow({row.kernel, std::to_string(row.size),
                      fmt(row.beforeSeconds, 5),
                      fmt(row.afterSeconds, 5), fmt(speedup, 1),
                      row.identical ? "yes" : "NO"});
        kernels.push(
            bench::Json::object()
                .str("kernel", row.kernel)
                .integer("size", static_cast<std::int64_t>(row.size))
                .num("before_seconds", row.beforeSeconds)
                .num("after_seconds", row.afterSeconds)
                .num("speedup", speedup)
                .flag("identical", row.identical));
    }
    std::printf("%s", table.render().c_str());

    bench::Json root = bench::Json::object();
    root.str("bench", "micro")
        .num("gate_min_matrix_speedup", kMinMatrixSpeedup)
        .child("kernels", kernels)
        .flag("pass", pass);
    bench::writeJson(root, out_path);

    if (!pass) {
        std::printf("\nFAIL: a vectorized kernel diverged from its "
                    "scalar predecessor or missed the speedup gate\n");
        return 1;
    }
    std::printf("\nall kernels bit-identical; matrix build >= %.1fx "
                "over the scalar reference\n",
                kMinMatrixSpeedup);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_micro.json";
    bool run_benchmarks = false;
    std::vector<char*> bench_argv = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--benchmarks") == 0) {
            run_benchmarks = true;
        } else if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
            run_benchmarks = true; // a filter implies the suite
            bench_argv.push_back(argv[i]);
        } else if (argv[i][0] != '-') {
            out_path = argv[i];
        }
    }

    const int gate = runGate(out_path);
    if (gate != 0)
        return gate;
    if (run_benchmarks) {
        int bench_argc = static_cast<int>(bench_argv.size());
        benchmark::Initialize(&bench_argc, bench_argv.data());
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }
    return 0;
}
