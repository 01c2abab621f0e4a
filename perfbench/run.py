#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (the lhd libraries from src/ plus the benchmark binary) into
.bench_build/; later runs reuse that build. The binary builds every input
from --seed in-process, measures, verifies its outputs and prints one JSON
result as its last stdout line.

An untraced scan run splits --seconds over SPLIT_PROCESSES fresh
processes, each with one set-up, and reports the mean of their metrics
(the median for peak RSS, which one transient allocation can inflate, and
for set-up time, which one slow process would otherwise dominate). A
scan process's speed depends on its address-space layout: with ASLR,
scan_reuse jobs settle at either ~100 or ~133 ms per process, while with
ASLR off they stay within 4%. One process would report a single draw of
that layout; the mean over several reports what users see on average.
serve_mixed and retrain show no such split, and their rate ladder and
training cycles need the whole budget in one process, so they run as one
process that repeats its set-up. A traced run (--trace 1) is always one
process and writes its spans to .bench_build/spans/<workload>-seed<n>.jsonl.

The combined result is checked against BENCHMARK.json; the exit code is 0
only when every process verified its outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lhd_perfbench")
RUN_TIMEOUT_S = 170
# Fresh processes an untraced run of these workloads is split over.
SPLIT_PROCESSES = {"scan_unique": 5, "scan_reuse": 5}
BUILD_TIMEOUT_S = 840


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configure (once) and build `target`; all output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no lhd source tree at %s/src: run from a full checkout" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build step timed out: " + " ".join(cmd))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Problems with the result line, as a list of messages."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last stdout line is not JSON"]
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    declared = declared_metrics(trace)
    if declared is not None and sorted(result["metrics"]) != sorted(declared):
        problems.append("metrics %s differ from BENCHMARK.json %s"
                        % (sorted(result["metrics"]), sorted(declared)))
    return problems


def combine(results):
    """One result from per-process results: ops add up, metrics take the
    mean across processes (peak RSS and set-up time the median)."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in ("peak_rss_mb", "setup_s"):
            value = statistics.median(values)
        else:
            value = statistics.fmean(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def run_selftest():
    build("perfbench_tests")
    return subprocess.run([os.path.join(BUILD, "perfbench_tests")],
                          cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build("lhd_perfbench")
    started = time.monotonic()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        runs = [cmd + ["--seconds", repr(args.seconds), "--spans",
                       os.path.join(spans, "%s-seed%d.jsonl"
                                    % (args.workload, args.seed))]]
    elif args.workload in SPLIT_PROCESSES:
        n = SPLIT_PROCESSES[args.workload]
        runs = [cmd + ["--seconds", repr(args.seconds / n), "--setups", "1"]] * n
    else:
        runs = [cmd + ["--seconds", repr(args.seconds)]]

    results, code = [], 0
    for i, run in enumerate(runs):
        left = RUN_TIMEOUT_S - (time.monotonic() - started)
        try:
            done = subprocess.run(run, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            fail("workload %s exceeded %d s" % (args.workload,
                                                RUN_TIMEOUT_S), 1)
        lines = done.stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            print("# [process %d] %s" % (i + 1, line.lstrip("# ")))
        problems = check_result(lines[-1], args.trace)
        if problems:
            for p in problems:
                print("perfbench: " + p, file=sys.stderr)
            return done.returncode or 1
        results.append(json.loads(lines[-1]))
        code = code or done.returncode
    print(json.dumps(combine(results)))
    return code


if __name__ == "__main__":
    sys.exit(main())
