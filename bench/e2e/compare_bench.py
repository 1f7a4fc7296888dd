#!/usr/bin/env python3
"""Compares fcm_bench runs of a parent commit with runs of a change.

    python3 bench/e2e/compare_bench.py --parent p1.json p2.json ... \\
        --change c1.json c2.json ... [--benchmark BENCHMARK.json] [--per-layer]

Each file is one `fcm_bench --out` result. Parent and change files pair up
in the order given, so run them alternately (parent, change, change,
parent, ...) with identical settings. One row per (end-to-end metric,
workload) is printed, marked:

  improved    over at least ten pairs, the change wins at least 9 of every
              10 (ties count for neither side) and the medians differ by
              more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  either side has fewer than two runs, or the parent's own
              spread (interquartile range over median) is wider than the
              bound and not every change run beats every parent run;
  unchanged   none of the above.

--per-layer adds the per-layer medians side by side (no verdicts: per-layer
metrics carry no bounds). Exits 1 when any row is worse.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10  # a gain is claimed only over at least this many pairs


def load(paths):
    runs = [json.loads(Path(p).read_text()) for p in paths]
    settings = {(r["manifest"]["seconds"], r["manifest"]["smoke"],
                 r["manifest"]["traced"]) for r in runs}
    return runs, settings


def values(runs, workload, kind, metric):
    out = []
    for run in runs:
        record = run["workloads"].get(workload, {})
        entry = record.get(kind, {}).get(metric)
        if entry is not None:
            out.append(entry["value"])
    return out


def verdict(parent, change, better, bound):
    """Applies the comparison rules; returns (mark, spread)."""
    higher = better == "higher"

    def beats(c, p):
        return c > p if higher else c < p

    if min(len(parent), len(change)) < 2:
        return "unresolved", float("inf")
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    iqr = q3 - q1
    spread = iqr / parent_median if parent_median else float("inf")
    every_run_better = all(beats(c, p) for c in change for p in parent)

    worse_by = (parent_median - change_median if higher
                else change_median - parent_median)
    if worse_by > bound * abs(parent_median):
        return "worse", spread
    if spread > bound and not every_run_better:
        return "unresolved", spread
    pairs = list(zip(parent, change))
    wins = sum(beats(c, p) for p, c in pairs)
    if len(pairs) >= MIN_PAIRS and (
            (every_run_better and spread > bound) or
            (wins >= 0.9 * len(pairs) and beats(change_median, parent_median)
             and abs(change_median - parent_median) > iqr)):
        return "improved", spread
    return "unchanged", spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()

    declared = json.loads(Path(args.benchmark).read_text())
    parent, parent_settings = load(args.parent)
    change, change_settings = load(args.change)
    if len(parent_settings | change_settings) > 1:
        print("warning: runs were made with different --seconds, --smoke "
              "or --trace settings", file=sys.stderr)
    if len(parent) != len(change):
        print("warning: unequal run counts; pairs use the shorter list",
              file=sys.stderr)
    workloads = [w["name"] for w in declared["workloads"]]

    print(f"{'metric':24s} {'workload':12s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    any_worse = False
    for metric in declared["end_to_end"]:
        for workload in workloads:
            p = values(parent, workload, "end_to_end", metric["name"])
            c = values(change, workload, "end_to_end", metric["name"])
            if not p or not c:
                continue
            mark, spread = verdict(p, c, metric["better"], metric["bound"])
            any_worse = any_worse or mark == "worse"
            pm, cm = statistics.median(p), statistics.median(c)
            delta = (cm - pm) / pm if pm else 0.0
            print(f"{metric['name']:24s} {workload:12s} {pm:12.6g} {cm:12.6g} "
                  f"{delta:+8.2%} {spread:7.3f} {metric['bound']:6.2f}  {mark}")

    if args.per_layer:
        print(f"\n{'per-layer metric':38s} {'workload':12s} {'parent':>12s} "
              f"{'change':>12s}")
        for metric in declared["per_layer"]:
            for workload in workloads:
                p = values(parent, workload, "per_layer", metric["name"])
                c = values(change, workload, "per_layer", metric["name"])
                if p and c and (any(p) or any(c)):
                    print(f"{metric['name']:38s} {workload:12s} "
                          f"{statistics.median(p):12.6g} "
                          f"{statistics.median(c):12.6g}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
