#!/usr/bin/env python3
"""Runs one fcm_bench workload and prints its result as one JSON line.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. On first use it builds fcm_bench from the
checkout's sources into .bench_build/ (CMake, Release). The last line of
standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1), each as {"value": ..., "unit": ...}.
Everything else fcm_bench prints goes to standard error.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "fcm_bench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_quietly(command, timeout):
    """Runs a build step, echoing its output to stderr only on failure."""
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, command))}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        fail(f"failed: {' '.join(map(str, command))}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_quietly(configure, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quietly(["cmake", "--build", str(BUILD), "--target", "fcm_bench",
                 "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in declared[kind]]
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        fail(f"unknown workload {args.workload}")

    build()
    out = BUILD / f"run-{os.getpid()}.json"
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(out)]
    if args.trace:
        command += ["--trace", str(BUILD / f"trace-{args.workload}.json")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"fcm_bench ran longer than {RUN_TIMEOUT_S} s")
    if not out.is_file():
        fail(f"fcm_bench exited {done.returncode} without a result")
    record = json.loads(out.read_text())["workloads"][args.workload]
    out.unlink()

    metrics = record[kind]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        fail(f"fcm_bench did not report {', '.join(missing)}")
    result = {
        "correct": bool(record["correct"]) and done.returncode == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: metrics[name] for name in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
