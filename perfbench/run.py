#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source and run it.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run. The last stdout line is the result JSON object.

  python3 perfbench/run.py --steadiness N [--workload <name> ...] [--seconds S] [--trace 0]
      Run each workload N times (seeds 1..N) and print, per metric, the
      median, quartiles and relative spread (q3 - q1) / median against the
      bound in BENCHMARK.json.

  python3 perfbench/run.py --self-test
      Unit tests of the benchmark's own helpers (C++ and Python).

Builds go to .bench_build/perfbench and run outputs (recorded inputs,
result.json, trace.json) to .bench_build/runs/, both under the
repository root. See perfbench/METRICS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configure once, then build @targets; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "zatel", "predictor.hh")):
        fail("zatel sources not found next to perfbench/ (src/ is missing)")
    try:
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j",
                        str(os.cpu_count() or 1), "--target"] + targets,
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)


def commit_id():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def driver_command(workload, seed, seconds, trace):
    out_dir = os.path.join(RUNS_DIR, "%s-s%d-t%d" % (workload, seed, trace))
    os.makedirs(out_dir, exist_ok=True)
    return [os.path.join(BUILD_DIR, "perfbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", str(trace), "--out", out_dir, "--commit", commit_id()]


def spread(values):
    """(q3 - q1) / median with statistics.quantiles(values, n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread(values)}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(args):
    bench = load_benchmark()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {}
    steady = True
    for workload in workloads:
        values = {}
        for seed in range(1, args.steadiness + 1):
            proc = subprocess.run(
                driver_command(workload, seed, seconds, args.trace),
                capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                fail("%s seed %d failed (exit %d)"
                     % (workload, seed, proc.returncode), 1)
            for name, metric in json.loads(lines[-1])["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s: %d runs of %ss" % (workload, args.steadiness, seconds))
        print("  %-30s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        report[workload] = {}
        for name, series in values.items():
            stats = summarize(series)
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                ok = stats["spread"] < bound / 3
                steady = steady and ok
                flag = "ok" if ok else "WIDE"
            print("  %-30s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
                name, stats["median"], stats["q1"], stats["q3"],
                stats["spread"], "" if bound is None else bound, flag))
            report[workload][name] = dict(stats, values=series)
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(RUNS_DIR, "steadiness.json"), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if steady else 1


def self_test():
    build(["perfbench", "perfbench_tests"])
    code = subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")]).returncode
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    code |= subprocess.run([sys.executable, "-m", "unittest", "-v",
                            "test_run"], cwd=HERE, env=env).returncode
    return 1 if code else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.steadiness is not None and args.steadiness < 2:
        parser.error("--steadiness needs at least 2 runs for quartiles")
    build(["perfbench"])
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1 or args.seed is None \
            or args.seconds is None:
        parser.error("a run needs one --workload, --seed and --seconds")
    try:
        return subprocess.run(
            driver_command(args.workload[0], args.seed, args.seconds,
                           args.trace),
            timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)


if __name__ == "__main__":
    sys.exit(main())
