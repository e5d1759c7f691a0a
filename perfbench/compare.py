#!/usr/bin/env python3
"""Compares parent and change runs of the benchmark, workload by workload.

    python3 perfbench/compare.py P1.json C1.json P2.json C2.json ...

Arguments are results files written by run.py (all workloads, untraced),
alternating parent and change, in the order they were run; alternating
cancels the host's slow drift. For every workload in the files and every
end-to-end metric it prints both sides' median and quartiles,
the share of pairs the change won (ties count for neither) and a verdict,
using the direction and bound BENCHMARK.json gives the metric:

  improved    over at least ten pairs, the change wins at least 9 pairs in
              10 and the medians differ by more than the parent's own
              quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the bound, and the parent's spread is within the bound (or
              every change run is worse than every parent run);
  unresolved  the parent's spread is wider than the bound;
  no-worse    otherwise.

Exits 1 when any metric regressed. Standard library only.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10  # fewest parent/change pairs behind an "improved" verdict


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def cell(values):
    return "%.4g [%.4g, %.4g]" % ((statistics.median(values),) +
                                  quartiles(values))


def verdict(parent, change, higher_better, bound):
    sign = 1.0 if higher_better else -1.0
    better = lambda a, b: sign * (a - b) > 0  # a better than b
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    win_frac = wins / len(pairs) if pairs else 0.0
    pm, cm = statistics.median(parent), statistics.median(change)
    p1, p3 = quartiles(parent)
    spread = (p3 - p1) / abs(pm) if pm else float("inf")
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    if (len(pairs) >= MIN_PAIRS and better(cm, pm) and win_frac >= 0.9
            and abs(cm - pm) > p3 - p1):
        return "improved", win_frac
    all_worse = all(better(p, c) for p in parent for c in change)
    if worse_by > bound and (spread <= bound or all_worse):
        return "regressed", win_frac
    if spread > bound:
        return "unresolved", win_frac
    return "no-worse", win_frac


def main():
    files = sys.argv[1:]
    if len(files) < 2 or len(files) % 2:
        sys.exit("usage: compare.py PARENT1 CHANGE1 [PARENT2 CHANGE2 ...]")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs = []
    for path in files:
        with open(path) as f:
            runs.append(json.load(f)["workloads"])
    parents, changes = runs[0::2], runs[1::2]

    regressed = False
    print("%-12s %-16s %-27s %-27s %5s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "verdict"))
    for name in parents[0]:
        if any(name not in r for r in runs):
            print("%-12s missing from a results file" % name)
            continue
        for m in spec["end_to_end"]:
            metric = m["name"]
            pv = [r[name]["metrics"][metric]["value"] for r in parents]
            cv = [r[name]["metrics"][metric]["value"] for r in changes]
            v, win_frac = verdict(pv, cv, m["better"] == "higher", m["bound"])
            regressed |= v == "regressed"
            print("%-12s %-16s %-27s %-27s %5.2f  %s" % (
                name, metric, cell(pv), cell(cv), win_frac, v))
        failed = [r[name]["failed"] for r in changes]
        if any(failed):
            print("%-12s change runs had failed jobs: %s" % (name, failed))
            regressed = True
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
