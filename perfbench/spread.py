#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workload W ...] [--runs 10]
        [--seconds S] [--first-seed 1] [--trace 0|1]

Runs perfbench/run.py once per seed (seeds first-seed, first-seed+1,
...), one workload after another, and prints for every metric its
median and its spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median.
It also prints the bound BENCHMARK.json gives the metric, so a spread
that is not well inside its bound stands out. Exits 1 if any run
failed or reported wrong outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec, bounds = load_bounds()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ok = True
    for workload in args.workload or names:
        values = {}
        for i in range(args.runs):
            res = run_once(workload, args.first_seed + i, args.seconds,
                           args.trace)
            if res is None or not res["correct"] or res["failed"]:
                print("%s seed %d: run failed or wrong: %s"
                      % (workload, args.first_seed + i, res))
                ok = False
                continue
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs of %gs)" % (workload, args.runs, args.seconds))
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of its bound"
            print("  %-26s median %-14.6g spread %6.3f  bound %s%s"
                  % (name, med, spread, bound, flag))
            print("      " + " ".join("%.5g" % v for v in vals))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
