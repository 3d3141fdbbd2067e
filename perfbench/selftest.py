#!/usr/bin/env python3
"""Self-test of the repository benchmark (see perfbench/README.md).

    python3 perfbench/selftest.py [--seconds 2]

For every workload in BENCHMARK.json, runs perfbench/run.py briefly with
--trace 0 and --trace 1 and checks that:
  - the run exits 0 and its last stdout line is the result object with
    exactly the keys correct, attempted, failed and metrics;
  - every end-to-end (trace 0) or per-layer (trace 1) metric of
    BENCHMARK.json is printed, with its declared unit, and nothing else;
  - every end-to-end value is a positive number;
  - correct is true, failed is 0 and attempted is at least 1.
Then checks that the benchmark refuses to run (non-zero exit, no
result) in a directory holding only BENCHMARK.json and perfbench/.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace)]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def check_result(spec, workload, trace, done, problems):
    tag = "%s --trace %d" % (workload, trace)
    if done.returncode != 0:
        problems.append("%s: exit %d\n%s" % (tag, done.returncode,
                                             done.stderr[-2000:]))
        return
    res = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (tag, sorted(res)))
        return
    if res["correct"] is not True or res["failed"] != 0 or \
            res["attempted"] < 1:
        problems.append("%s: correct=%s failed=%s attempted=%s"
                        % (tag, res["correct"], res["failed"],
                           res["attempted"]))
    want = spec["per_layer"] if trace else spec["end_to_end"]
    got = res["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        problems.append("%s: metric names differ from BENCHMARK.json" % tag)
    for m in want:
        value = got.get(m["name"])
        if value is None:
            continue
        if value["unit"] != m["unit"]:
            problems.append("%s: %s unit %s, declared %s"
                            % (tag, m["name"], value["unit"], m["unit"]))
        if not trace and not value["value"] > 0:
            problems.append("%s: %s = %s is not positive"
                            % (tag, m["name"], value["value"]))
    print("ok   %s: %d metrics, %d ops" % (tag, len(got), res["attempted"]))


def check_bare_directory(problems):
    """The benchmark alone (no sources) must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180, env=env)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("bare directory: exit %d, stdout %r"
                            % (done.returncode, done.stdout[-200:]))
        else:
            print("ok   bare directory refused (exit %d)" % done.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            done = run(w["name"], args.seconds, trace)
            check_result(spec, w["name"], trace, done, problems)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
