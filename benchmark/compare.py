#!/usr/bin/env python3
"""Compare two sets of benchmark results (parent vs change).

    python3 benchmark/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of result files
written by pocolo_bench --out, or by benchmark/run.py --save. Traced
results are skipped. For every workload and every end_to_end metric in
BENCHMARK.json, one row gives each side's median and quartiles, the change
in the median, the run-to-run noise, the metric's bound and a verdict:

  better      the change wins at least 9/10 of the run pairs (ties
              count for neither) and the medians differ by more than
              the noise;
  worse       the change's median is worse than the parent's by more
              than the bound;
  unresolved  the noise is wider than the bound and not every change
              run beats every parent run;
  same        none of the above: no regression within the bound.

A change smaller than the metric's absolute floor (FLOORS) is "same".

Noise is the spread between runs of the same input, as a share of the
median, so that the cost of different seeds' inputs is not read as
noise. In order of preference it comes from:

  same-seed   parent runs that repeat a seed: each run over its seed's
              median, then the quartile spread of those ratios;
  paired      seeds both sides ran: each seed's change/parent ratio,
              then the quartile spread of those ratios over their
              median;
  seeds       otherwise the parent's quartile spread over its median,
              which also holds the differences between inputs.

Runs pair by seed when both sides ran the same seeds, otherwise in
order. Two more rows per workload: the failed-operation fraction, worse
on any rise, and the semantic result hash, which must be bit-identical
for every seed both sides ran. Exits 1 on any "worse" or "changed"
row, 0 otherwise. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Absolute changes below these are "same" whatever their share of the
# median: set-up times far under the floor are microsecond-scale and
# jitter by a large share without a user seeing it. BENCHMARK.json has
# no key for a floor, so it lives here.
FLOORS = {"setup_s": 0.05}


def load(target):
    """workload -> {seed: [result, ...]} for untraced results."""
    target = Path(target)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    runs = {}
    for path in files:
        try:
            result = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            sys.exit(f"compare.py: cannot read {path}: {error}")
        if not isinstance(result, dict) or "workload" not in result:
            continue
        if result.get("traced"):
            continue
        by_seed = runs.setdefault(result["workload"], {})
        by_seed.setdefault(result.get("seed"), []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    q1, q3 = quartiles(values)
    centre = statistics.median(values)
    return (q3 - q1) / abs(centre) if centre else 0.0


def pairs(parent, change):
    """(parent run, change run) pairs: by seed when the seeds match."""
    common = sorted(set(parent) & set(change), key=str)
    if common and len(common) == min(len(parent), len(change)):
        return [pair for s in common for pair in zip(parent[s], change[s])]
    flat = lambda side: [r for s in sorted(side, key=str) for r in side[s]]
    return list(zip(flat(parent), flat(change)))


def noise(parent, change, value):
    """(spread as a share of the median, its basis); see the doc."""
    repeats = [runs for runs in parent.values() if len(runs) > 1]
    if repeats:
        ratios = []
        for runs in repeats:
            values = [value(r) for r in runs]
            centre = statistics.median(values)
            ratios += [v / centre for v in values if centre]
        if len(ratios) > 1:
            return relative_spread(ratios), "same-seed"
    common = sorted(set(parent) & set(change), key=str)
    ratios = []
    for s in common:
        p = statistics.median(value(r) for r in parent[s])
        if p:
            ratios.append(statistics.median(value(r) for r in change[s]) / p)
    if len(ratios) > 1:
        return relative_spread(ratios), "paired"
    values = [value(r) for runs in parent.values() for r in runs]
    return relative_spread(values), "seeds"


def verdict(pv, cv, paired, better, bound, spread, floor):
    sign = -1.0 if better == "higher" else 1.0  # positive = worse
    pm = statistics.median(pv)
    cm = statistics.median(cv)
    if abs(cm - pm) < floor:
        return "same"
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    wins = sum(1 for p, c in paired if sign * (c - p) < 0)
    if (paired and wins >= 0.9 * len(paired) and sign * (cm - pm) < 0
            and abs(cm - pm) > spread * abs(pm)):
        return "better"
    if worse_by > bound:
        return "worse"
    if better == "higher":
        every_change_better = min(cv) > max(pv)
    else:
        every_change_better = max(cv) < min(pv)
    if spread > bound and not every_change_better:
        return "unresolved"
    return "same"


def fmt(value):
    return f"{value:.6g}"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = load(args.parent)
    change = load(args.change)
    header = ("workload", "metric", "n", "parent median [q1, q3]",
              "change median [q1, q3]", "delta", "noise", "bound",
              "verdict")
    rows = []
    regressions = 0
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            rows.append((workload, "-", "0", "-", "-", "-", "-", "-",
                         "missing on one side"))
            continue
        p_runs = [r for runs in parent[workload].values() for r in runs]
        c_runs = [r for runs in change[workload].values() for r in runs]
        paired = pairs(parent[workload], change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            value = lambda r: r["metrics"][name]["value"]
            try:
                pv = [value(r) for r in p_runs]
                cv = [value(r) for r in c_runs]
                pp = [(value(p), value(c)) for p, c in paired]
                spread, basis = noise(parent[workload], change[workload],
                                      value)
            except (KeyError, TypeError):
                rows.append((workload, name, "-", "-", "-", "-", "-", "-",
                             "missing metric"))
                continue
            v = verdict(pv, cv, pp, metric["better"], metric["bound"],
                        spread, FLOORS.get(name, 0.0))
            regressions += v == "worse"
            pm = statistics.median(pv)
            cm = statistics.median(cv)
            pq = quartiles(pv)
            cq = quartiles(cv)
            bound = f"{100.0 * metric['bound']:.0f}%"
            if name in FLOORS:
                bound += f" (floor {fmt(FLOORS[name])})"
            rows.append((
                workload, name, f"{len(pv)}/{len(cv)}",
                f"{fmt(pm)} [{fmt(pq[0])}, {fmt(pq[1])}]",
                f"{fmt(cm)} [{fmt(cq[0])}, {fmt(cq[1])}]",
                f"{100.0 * (cm - pm) / pm:+.2f}%" if pm else "-",
                f"{100.0 * spread:.1f}% {basis}", bound, v))
        failed = []
        for side in (p_runs, c_runs):
            attempted = sum(r.get("attempted", 0) for r in side)
            failed.append(sum(r.get("failed", 0) for r in side)
                          / attempted if attempted else 0.0)
        rise = failed[1] > failed[0]
        regressions += rise
        rows.append((workload, "failed_frac", "", fmt(failed[0]),
                     fmt(failed[1]), "", "", "0",
                     "worse" if rise else "same"))
        # Same seed, same inputs: every run must agree bit for bit.
        seeds = sorted(set(parent[workload]) | set(change[workload]),
                       key=str)
        changed = sum(
            1 for s in seeds
            if len({r.get("semantic_hash")
                    for r in parent[workload].get(s, [])
                    + change[workload].get(s, [])}) > 1)
        regressions += changed > 0
        rows.append((workload, "semantic_hash", str(len(seeds)), "", "",
                     "", "", "exact",
                     f"changed on {changed} seeds" if changed else "same"))

    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
