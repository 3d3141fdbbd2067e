#!/usr/bin/env python3
"""Performance regression gate for the bench suite.

Compares a fresh bench JSON (produced with `--json`) against the
committed baseline under bench/baselines/ and fails when any GATED
metric regressed by more than the tolerance. Only the "gated" section
is enforced: those are RATIOS of two measurements taken on the same
host in the same run (warm vs single-shot, fast vs reference tier), so
they are stable across machines of very different speed. The
"informative" section (absolute RPS, p99 in microseconds) is printed
for eyeballs but never gates — absolute numbers only mean something
relative to the host that produced them.

All gated metrics are higher-is-better; a run FAILS when
    current < baseline * (1 - tolerance).
Improvements never fail, but a large one prints a hint to refresh the
baseline so the gate keeps teeth.

Usage:
    scripts/perf_gate.py CURRENT.json BASELINE.json [--tolerance 0.15]
    scripts/perf_gate.py CURRENT.json BASELINE.json --update

`--update` rewrites BASELINE.json with CURRENT.json (after schema
validation) instead of gating; commit the result.
"""

import argparse
import json
import sys

SCHEMA_PREFIX = "macs-bench-"


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    schema = data.get("schema")
    if not isinstance(schema, str) or not schema.startswith(SCHEMA_PREFIX):
        sys.exit(f"{path}: schema {schema!r}, want '{SCHEMA_PREFIX}*'")
    if not isinstance(data.get("gated"), dict) or not data["gated"]:
        sys.exit(f"{path}: missing or empty 'gated' section")
    return data


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="bench JSON from this run")
    ap.add_argument("baseline", help="committed baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current run")
    args = ap.parse_args()

    current = load(args.current)

    if args.update:
        with open(args.current, "r", encoding="utf-8") as f:
            blob = f.read()
        with open(args.baseline, "w", encoding="utf-8") as f:
            f.write(blob)
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = load(args.baseline)
    if current["schema"] != baseline["schema"]:
        sys.exit(f"schema mismatch: current {current['schema']!r} vs "
                 f"baseline {baseline['schema']!r}")
    floor_frac = 1.0 - args.tolerance
    failed = []

    print(f"perf gate: tolerance {args.tolerance:.0%}, "
          f"baseline {args.baseline}")
    for name, base in sorted(baseline["gated"].items()):
        cur = current["gated"].get(name)
        if cur is None:
            failed.append(name)
            print(f"  FAIL {name}: missing from current run")
            continue
        floor = base * floor_frac
        ok = cur >= floor
        verdict = "ok" if ok else "FAIL"
        print(f"  {verdict:4s} {name}: {cur:.3f} "
              f"(baseline {base:.3f}, floor {floor:.3f})")
        if not ok:
            failed.append(name)
        elif base > 0 and cur > base * 1.5:
            print(f"       note: {cur / base:.1f}x above baseline — "
                  f"consider --update to keep the gate tight")

    info_base = baseline.get("informative", {})
    info_cur = current.get("informative", {})
    if info_cur:
        print("  informative (not gated):")
        for name, cur in sorted(info_cur.items()):
            base = info_base.get(name)
            ref = f" (baseline {base:.1f})" if base is not None else ""
            print(f"       {name}: {cur:.1f}{ref}")

    if failed:
        print(f"perf gate FAILED: {', '.join(failed)} "
              f"regressed beyond {args.tolerance:.0%}")
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
