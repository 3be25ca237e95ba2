#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every call configures and
builds benchmark/ (which compiles ../src) into build-bench/; only the
first call compiles anything. The workload then runs in its
own process and the last line printed on stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics listed in
BENCHMARK.json, with --trace 1 the per_layer metrics (the traced run
also writes a Chrome trace under build-bench/runs/). Build and program
output go to stderr. The exit code is 0 only for a correct run; a
failed build exits 2 without printing a result.

--save DIR also copies the program's full result file (metrics, checks
and per-layer table) into DIR, e.g. for benchmark/results/; repeated
runs of one seed are kept side by side.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "pocolo_bench"
WORKLOADS = ("fleet-day", "paper-seeds", "ctrl-storm", "fleet-stream")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build (both incremental); False on any failure."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", str(BUILD), "-j",
                  str(min(4, os.cpu_count() or 1))]]
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr,
                                  stderr=sys.stderr, check=False)
            if done.returncode != 0:
                log("run.py: build step failed:", " ".join(step))
                return False
    return BINARY.exists()


def contract_line(result, names):
    metrics = result.get("metrics", {})
    chosen = {}
    correct = bool(result.get("correct"))
    for name in names:
        metric = metrics.get(name)
        if metric is None or metric.get("value") is None:
            log("run.py: metric missing from result:", name)
            correct = False
            continue
        chosen[name] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": correct,
            "attempted": int(result.get("attempted", 0)),
            "failed": int(result.get("failed", 0)),
            "metrics": chosen}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists() or not build():
        return 2
    spec = json.loads(spec_path.read_text())
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]

    # Paths relative to the checkout root, where the binary runs, so
    # result files name no host directory.
    runs = (BUILD / "runs").relative_to(ROOT)
    (ROOT / runs).mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    out = runs / f"{stem}.json"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(out)]
    if args.trace:
        command += ["--trace", str(runs / f"{stem}.trace.json")]
    try:
        subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                       cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("run.py: workload timed out after", RUN_TIMEOUT_S, "s")
        return 3
    out = ROOT / out
    if not out.exists():
        log("run.py: the workload wrote no result")
        return 3
    result = json.loads(out.read_text())
    if args.save:
        # A repeated run of one seed gets the next free -rN suffix.
        args.save.mkdir(parents=True, exist_ok=True)
        stem = (f"{args.workload}-s{args.seed}"
                f"{'-traced' if args.trace else ''}")
        saved = args.save / f"{stem}.json"
        repeat = 1
        while saved.exists():
            repeat += 1
            saved = args.save / f"{stem}-r{repeat}.json"
        shutil.copyfile(out, saved)
    line = contract_line(result, names)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
