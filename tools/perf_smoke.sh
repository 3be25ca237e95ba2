#!/usr/bin/env bash
# Perf smoke: run the solver-scaling benchmark and the parallel-solver
# unit tests against an existing build tree. The scaling benchmark
# cross-checks the pooled LP against the serial LP (and the LP's
# optimal value against Hungarian's) and exits non-zero on any
# disagreement; the unit tests add the solve memo's thread-safety
# check. A passing run certifies the parallel solver's determinism
# contract on this host, not just its wall-clock.
#
# Usage: tools/perf_smoke.sh [build-dir]   (default: build)

set -u

build_dir="${1:-build}"

fail() {
    echo "perf_smoke: FAILED: $*" >&2
    exit 1
}

[ -d "${build_dir}" ] || fail "build dir '${build_dir}' not found (run cmake/cmake --build first)"

scaling="${build_dir}/bench/bench_ext_scaling"
[ -x "${scaling}" ] || fail "missing ${scaling} (build the bench targets)"

echo "perf_smoke: running ${scaling}"
if ! "${scaling}"; then
    fail "bench_ext_scaling exited non-zero: parallel solver disagrees with serial (or LP with Hungarian)"
fi

solver_tests="${build_dir}/tests/test_math_solver_parallel"
if [ -x "${solver_tests}" ]; then
    echo "perf_smoke: running ${solver_tests}"
    "${solver_tests}" --gtest_brief=1 ||
        fail "test_math_solver_parallel reported failures"
else
    echo "perf_smoke: ${solver_tests} not built, skipping unit tests"
fi

echo "perf_smoke: OK"
