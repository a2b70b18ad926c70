#!/usr/bin/env python3
"""End-to-end benchmark of the live HyperFile runtime.

Builds perfbench/ (the repository's src/ plus the hf_e2e driver) with CMake,
runs one workload, and prints a readable metric table, a provenance record
and, as the last line of stdout, the result object:

    python3 perfbench/run.py --workload rand95-wal --seed 1 --seconds 45 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/. See perfbench/README.md for the
workloads, the metrics and what each layer metric is expected to move.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("chain-epoll", "rand05-inproc", "text-pool", "rand95-wal",
             "rand95-moves-wal")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then let CMake bring the binary up to date. Build
    output goes to stderr so the last stdout line stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dist", "site_server.hpp")):
        fail("HyperFile sources (src/) not found beside perfbench/")
    os.makedirs(bdir, exist_ok=True)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(
                    step, stdout=sys.stderr, stderr=sys.stderr,
                    timeout=max(1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(bdir, "hf_e2e")


def git_sha():
    # The ceiling keeps git from finding a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    binary = build(bdir)
    work_dir = os.path.join(bdir, f"work-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"hf_e2e exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("hf_e2e printed no result line")
    missing = expected_metrics(args.trace) - set(result.get("metrics", {}))
    if missing:
        fail(f"metrics missing from the result: {sorted(missing)}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
