#!/usr/bin/env python3
"""The repository benchmark: four closed-loop workloads over skypref.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]

The second form runs every workload in turn. The script builds the
library and the benchmark from source into .bench_build/perfbench (CMake,
Release), then runs one benchmark process per workload, so each
process's peak memory is that workload's. Every workload issues its
queries one after another from one client and checks every answer.

--trace 0 prints the end-to-end metrics; --trace 1 runs the traced
variant (spans around each layer call plus a serial replay of each query)
and prints the per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

Seeds: PRIMARY_SEED is the default. HOLDOUT_SEED is kept for checking a
later performance claim on inputs not used while that change was made.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

PRIMARY_SEED = 1
HOLDOUT_SEED = 2
WORKLOADS = [
    "bz1200_all_exact",
    "bz1200_all_sam",
    "uni22_one_exact",
    "nursery8_one_exact",
]
# One workload process must finish well within three minutes.
RUN_TIMEOUT_S = 170

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = pathlib.Path(".bench_build") / "perfbench"
WORK_DIR = pathlib.Path(".bench_build") / "perfbench-work"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns its path."""
    if not (ROOT / "src" / "skypref.h").is_file():
        log("perfbench: the skypref sources (src/) are missing")
        return None
    build_dir = ROOT / BUILD_DIR
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("perfbench: build step failed: " + " ".join(step))
            return None
    return build_dir / "perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(binary, workload, seed, seconds, trace, sha):
    """Runs one workload process; returns (stdout lines, result) or None."""
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", str(ROOT / WORK_DIR), "--git-sha", sha]
    try:
        out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with code {out.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: {workload} printed no result")
        return None
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=PRIMARY_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    sha = git_sha()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        ran = run_workload(binary, workload, args.seed, args.seconds,
                           args.trace, sha)
        if ran is None:
            return 1
        lines, results[workload] = ran
        for line in lines:
            print(line if len(workloads) == 1 else f"{workload} {line}")

    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": metric for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
