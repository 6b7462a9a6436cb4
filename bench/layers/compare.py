#!/usr/bin/env python3
"""Compares two sets of bench_layers runs, metric by metric.

    python3 bench/layers/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the --out JSON files of untraced runs (--trace 0). For
every workload and end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, the pairs the change won, the relative change of the
median and a verdict:

  improved      the change won at least 9 of 10 pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range;
  unresolved    the parent's spread (interquartile range over median) is
                wider than the metric's bound, and the change did not read
                better in every run;
  regressed     the change's median is worse than the parent's by more than
                the bound;
  within bound  otherwise.

Runs pair up by seed; runs whose seed has no partner pair up in file-name
order. Exits 1 when any metric regressed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))


def load(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            run = json.load(f)
        if run.get("trace") != 0:
            continue
        runs.setdefault(run["workload"], []).append(run)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    by_seed = {r["seed"]: r for r in change}
    matched, left = [], []
    for run in parent:
        if run["seed"] in by_seed:
            matched.append((run, by_seed.pop(run["seed"])))
        else:
            left.append(run)
    matched += zip(left, by_seed.values())
    return matched


def verdict(metric, parent_values, change_values, pair_values):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent_values)
    _, c_med, _ = quartiles(change_values)
    wins = sum(1 for p, c in pair_values if sign * (c - p) > 0)
    decided = sum(1 for p, c in pair_values if c != p)
    spread = (p3 - p1) / abs(p_med) if p_med else float("inf")
    all_better = min(sign * c for c in change_values) > max(sign * p for p in parent_values)
    improved = (decided > 0 and wins >= 0.9 * len(pair_values)
                and sign * (c_med - p_med) > (p3 - p1))
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if spread > metric["bound"] and not all_better:
        label = "unresolved"
    elif improved:
        label = "improved"
    elif worse > metric["bound"]:
        label = "regressed"
    else:
        label = "within bound"
    return wins, spread, label


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    header = (f"{'workload':<17} {'metric':<20} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32} {'wins':>6} {'delta':>8} "
              f"{'spread':>7} {'bound':>6}  verdict")
    print(header)
    regressed = False
    for workload in sorted(set(parent) & set(change)):
        matched = pairs(parent[workload], change[workload])
        for metric in metrics:
            name = metric["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in parent[workload]]
            cv = [r["result"]["metrics"][name]["value"] for r in change[workload]]
            pair_values = [(p["result"]["metrics"][name]["value"],
                            c["result"]["metrics"][name]["value"]) for p, c in matched]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            wins, spread, label = verdict(metric, pv, cv, pair_values)
            regressed |= label == "regressed"
            delta = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{workload:<17} {name:<20} "
                  f"{f'{pm:.4g} [{p1:.4g}, {p3:.4g}]':>32} "
                  f"{f'{cm:.4g} [{c1:.4g}, {c3:.4g}]':>32} "
                  f"{f'{wins}/{len(pair_values)}':>6} {delta:>+8.1%} "
                  f"{spread:>7.1%} {metric['bound']:>6.0%}  {label}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}", file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
