#!/bin/sh
# Bad configuration must fail loudly: a misconfigured CLI invocation
# has to exit non-zero AND print a poco::fatal "error:" diagnostic on
# stderr. ctest's WILL_FAIL only checks the exit code, so this script
# asserts both halves.
#
# Usage: cli_bad_config.sh <path-to-pocolo_cli>

cli="$1"
if [ -z "$cli" ] || [ ! -x "$cli" ]; then
    echo "cli_bad_config.sh: missing or non-executable CLI: '$cli'" >&2
    exit 2
fi

fail=0

check() {
    desc="$1"
    shift
    stderr_file="${TMPDIR:-/tmp}/cli_bad_config_$$.stderr"
    "$cli" "$@" 2>"$stderr_file"
    status=$?
    if [ "$status" -eq 0 ]; then
        echo "FAIL: $desc: expected non-zero exit, got 0" >&2
        fail=1
    fi
    if ! grep -q "error:" "$stderr_file"; then
        echo "FAIL: $desc: no 'error:' message on stderr" >&2
        sed 's/^/  stderr: /' "$stderr_file" >&2
        fail=1
    fi
    rm -f "$stderr_file"
}

check "unknown LC app" simulate nosuchapp graph 30 2
# Simulated minutes must lie in (0, 1440]; 1e300 would overflow the
# conversion to SimTime.
check "zero simulated minutes" simulate xapian graph 30 0
check "negative simulated minutes" simulate xapian graph 30 -5
check "simulated minutes above one day" simulate xapian graph 30 1e300
check "unknown placement algorithm" place nosuchsolver
check "malformed numeric argument" curve sphinx not_a_number
# spec builds no pool, so even a CLI without the bound starts no
# thread here.
check "thread count above the bound" --threads 100000 spec
# scen generates 1 to 100000 clusters (about 1.4 KiB each); anything
# else is rejected before a single cluster is built.
check "zero scenario clusters" scen 0
check "scenario clusters above the bound" scen 100001
check "scenario clusters at INT_MAX" scen 2147483647
check "zero scenario regions" scen 24 0

if [ "$fail" -eq 0 ]; then
    echo "PASS: bad configs exit non-zero with an error: diagnostic"
fi
exit "$fail"
