#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload read_hot --seed 1 --seconds 10 --trace 0

prints every metric of the run, one per line with its unit, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. Without --workload it runs every workload,
untraced and traced, and prints every metric of each. Exits non-zero when
the build fails or any answer is wrong.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark in Release. Returns True on
    success; on failure the build log goes to stderr."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            # A half-configured tree would make every later run fail the
            # same way; start the next attempt afresh.
            if step[1] == "-S":
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    return BINARY.exists()


def run_binary(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans_dir = BUILD_DIR / "spans"
        spans_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans_dir / f"{workload}-seed{seed}.csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: {workload} printed no result", file=sys.stderr)
        return proc.returncode or 1, None


def select(spec, result, trace):
    """The metrics BENCHMARK.json lists for this mode, with their units.
    A per-layer metric of a layer the workload never calls (runtime.* on
    tiered_push, tiered.* on the sharded workloads) reads 0."""
    measured = result["metrics"]
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = [f"metric {name} is not listed in BENCHMARK.json"
                for name in measured if name not in listed]
    chosen = {}
    for metric in spec["per_layer"] if trace else spec["end_to_end"]:
        name = metric["name"]
        if name in measured:
            value = measured[name]
        elif trace:
            value = 0.0
        else:
            problems.append(f"metric {name} not measured")
            continue
        chosen[name] = {"value": value, "unit": metric["unit"]}
    return chosen, problems


def run_one(spec, workload, seed, seconds, trace):
    code, result = run_binary(workload, seed, seconds, trace)
    if result is None:
        return 1, None
    metrics, problems = select(spec, result, trace)
    for problem in problems:
        print(f"  FAIL  {problem}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>18.6f} {metric['unit']}")
    failed = int(result["failed"]) + len(problems)
    out = {"correct": failed == 0 and code == 0,
           "attempted": int(result["attempted"]),
           "failed": failed,
           "metrics": metrics}
    return (0 if out["correct"] else 1), out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if not build():
        return 1

    if args.workload is not None:
        code, out = run_one(spec, args.workload, args.seed, seconds,
                            args.trace)
        if out is None:
            return 1
        print(json.dumps(out))
        return code

    # Every workload, untraced and traced.
    worst = 0
    for workload in names:
        for trace in (0, 1):
            code, _ = run_one(spec, workload, args.seed, seconds, trace)
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
