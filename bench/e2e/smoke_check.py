#!/usr/bin/env python3
"""The bench_e2e_smoke test: fcm_bench at smoke sizes, end to end.

    python3 smoke_check.py path/to/fcm_bench path/to/BENCHMARK.json

Checks that
  * `fcm_bench --list` matches BENCHMARK.json exactly (workload names and
    whys; metric names, units and directions), so the two cannot drift;
  * a traced smoke run passes every correctness check and reports every
    declared metric for every workload;
  * the trace file parses, every span's parent exists and encloses it, and
    per workload the layer self-times plus the unattributed remainder sum
    to the traced end-to-end time;
  * compare_bench.py on two smoke runs of this build reports nothing worse.
Writes its files to the current directory.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAILED: {what}")


def run(command):
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stdout.write(done.stdout + done.stderr)
    return done


def check_list(binary, declared):
    listed = json.loads(run([binary, "--list"]).stdout)
    check([(w["name"], w["why"]) for w in listed["workloads"]] ==
          [(w["name"], w["why"]) for w in declared["workloads"]],
          "--list workloads match BENCHMARK.json")
    for kind in ("end_to_end", "per_layer"):
        check([(m["name"], m["unit"], m["better"]) for m in listed[kind]] ==
              [(m["name"], m["unit"], m["better"]) for m in declared[kind]],
              f"--list {kind} metrics match BENCHMARK.json")


def check_run(result, declared, traced):
    for name, record in result["workloads"].items():
        check(record["correct"] and record["failed"] == 0,
              f"{name}: every correctness check passes")
        kinds = ["end_to_end"] + (["per_layer"] if traced else [])
        for kind in kinds:
            for metric in declared[kind]:
                check(metric["name"] in record[kind],
                      f"{name}: reports {metric['name']}")


def check_trace(events, result):
    spans = {}
    for event in events:
        if event.get("ph") == "X":
            spans[(event["pid"], event["args"]["id"])] = event
    check(bool(spans), "the trace holds spans")
    self_us = {}
    for (pid, span_id), event in spans.items():
        self_us[(pid, span_id)] = event["dur"]
    for (pid, span_id), event in spans.items():
        parent = event["args"]["parent"]
        if parent < 0:
            continue
        outer = spans.get((pid, parent))
        check(outer is not None, f"span {pid}/{span_id}: parent exists")
        if outer is None:
            continue
        check(outer["ts"] - 1 <= event["ts"] and
              event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1,
              f"span {pid}/{span_id} lies inside its parent")
        self_us[(pid, parent)] -= event["dur"]
    # Self times are never negative, so children do not overlap.
    check(all(v > -1 for v in self_us.values()), "children never overlap")

    names = {e["pid"]: e["args"]["name"] for e in events
             if e.get("ph") == "M"}
    for pid, workload in names.items():
        attribution = result["workloads"][workload]["detail"]["attribution"]
        total = attribution["traced_total_s"]
        summed = sum(attribution["self_s"].values()) + \
            attribution["unattributed_s"]
        check(abs(summed - total) <= 1e-6 * max(total, 1.0),
              f"{workload}: layer self-times + remainder = traced total")
        roots = sum(e["dur"] for (p, _), e in spans.items()
                    if p == pid and e["args"]["parent"] < 0 and
                    not e["name"].startswith("serve.engine"))
        check(abs(roots / 1e6 - total) <= 1e-3 * max(total, 1e-3),
              f"{workload}: trace roots sum to the traced total")


def main():
    binary, benchmark = sys.argv[1], sys.argv[2]
    declared = json.loads(Path(benchmark).read_text())
    check_list(binary, declared)

    traced = run([binary, "--smoke", "--seed", "2026", "--out", "smoke_a.json",
                  "--trace", "smoke_trace.json"])
    check(traced.returncode == 0, "traced smoke run exits 0")
    result = json.loads(Path("smoke_a.json").read_text())
    check_run(result, declared, traced=True)
    check_trace(json.loads(Path("smoke_trace.json").read_text())
                ["traceEvents"], result)

    for name in ("smoke_b.json", "smoke_c.json"):
        untraced = run([binary, "--smoke", "--seed", "2026", "--out", name])
        check(untraced.returncode == 0, "untraced smoke run exits 0")
        check_run(json.loads(Path(name).read_text()), declared,
                  traced=False)
    compare = run([sys.executable, str(HERE / "compare_bench.py"),
                   "--benchmark", benchmark, "--parent", "smoke_b.json",
                   "--change", "smoke_c.json"])
    sys.stdout.write(compare.stdout)
    check(compare.returncode == 0 and " worse" not in compare.stdout,
          "compare_bench.py reports nothing worse between two smoke runs")

    print("bench_e2e_smoke:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
