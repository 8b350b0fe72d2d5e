"""Compare two sets of benchmark results: parent and change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records run.py writes to ``.bench_results/`` (one
JSON file per run; traced runs are ignored). Runs of a workload are paired
by seed, in time order within a seed, or in time order when the two sides
share no seed. For every end-to-end metric of BENCHMARK.json and every
workload this prints both sides' medians and quartiles over their runs, the
share of pairs the change won (ties count for neither side) and a verdict:

    better      the change won at least 9/10 of the pairs and the medians
                differ by more than the parent's own spread (q3 - q1)
    worse       the change's median is worse than the parent's by more than
                the metric's bound, and the parent's spread is within it
    unresolved  neither; "within bound" when the change is no worse than
                the bound allows, "spread > bound" when the parent's runs
                spread wider than the bound and not every change run beat
                every parent run
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") != 0:
            continue
        if not record["correct"]:
            print(f"warning: {path} failed its correctness checks", file=sys.stderr)
        runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["time"])
    return runs


def pair(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    common = sorted({r["seed"] for r in parent} & {r["seed"] for r in change})
    if not common:
        return list(zip(parent, change))
    pairs = []
    for seed in common:
        pairs.extend(zip([r for r in parent if r["seed"] == seed],
                         [r for r in change if r["seed"] == seed]))
    return pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(p_vals, c_vals, pairs_vals, metric) -> tuple[str, float]:
    lower = metric["better"] == "lower"

    def beats(c, p):
        return c < p if lower else c > p

    wins = sum(beats(c, p) for p, c in pairs_vals)
    share = wins / len(pairs_vals)
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    spread = p_q3 - p_q1
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    if share >= 0.9 and beats(c_med, p_med) and abs(c_med - p_med) > spread:
        return "better", share
    all_better = all(beats(c, p) for c in c_vals for p in p_vals)
    if spread / p_med > metric["bound"] and not all_better:
        return "unresolved (spread > bound)", share
    if worse_by > metric["bound"]:
        return "worse", share
    return "unresolved (within bound)", share


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    header = (f"{'workload':8s} {'metric':14s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'pairs won':>9s}  verdict")
    print(header)
    worse = False
    for workload in sorted(set(parent) & set(change)):
        pairs = pair(parent[workload], change[workload])
        for metric in metrics:
            name = metric["name"]
            p_vals = [r["metrics"][name]["value"] for r in parent[workload]]
            c_vals = [r["metrics"][name]["value"] for r in change[workload]]
            pairs_vals = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                          for p, c in pairs]
            result, share = verdict(p_vals, c_vals, pairs_vals, metric)
            worse = worse or result == "worse"
            p_q1, p_med, p_q3 = quartiles(p_vals)
            c_q1, c_med, c_q3 = quartiles(c_vals)
            print(f"{workload:8s} {name:14s} "
                  f"{f'{p_med:.5g} [{p_q1:.5g}, {p_q3:.5g}]':34s} "
                  f"{f'{c_med:.5g} [{c_q1:.5g}, {c_q3:.5g}]':34s} "
                  f"{share:9.0%}  {result}  (n {len(p_vals)}/{len(c_vals)}, "
                  f"{len(pairs_vals)} pairs, bound {metric['bound']:.0%})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
