#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep-cold|serve-mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
the perfbench program and the MACS libraries from source into the build
directory ($CARGO_TARGET_DIR if set, else .bench_build); later runs
only re-check the build. The program's result (one JSON object) is the
last line of stdout; build output and diagnostics go to stderr.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-cold", "serve-mixed")
# A run measures --seconds plus a few seconds of set-up and oracle
# passes; anything far beyond that is a hang.
RUN_SLACK_S = 60
BUILD_TIMEOUT_S = 840


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def run_step(cmd, timeout):
    """Run a build step with its output on stderr; False on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("run.py: timed out: %s" % " ".join(cmd), file=sys.stderr)
        return False
    return done.returncode == 0


def build():
    """Configure (once) and build perfbench; its path, or None."""
    if shutil.which("cmake") is None:
        print("run.py: cmake not found", file=sys.stderr)
        return None
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                        BUILD_TIMEOUT_S):
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_step(["cmake", "--build", out, "-j", jobs, "--target",
                     "perfbench"], BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(out, "perfbench")
    return binary if os.path.exists(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=args.seconds + RUN_SLACK_S, text=True)
    except subprocess.TimeoutExpired:
        print("run.py: perfbench did not finish in time", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print("run.py: perfbench exited with %d" % done.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
