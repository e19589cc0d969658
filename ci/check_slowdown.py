#!/usr/bin/env python3
"""Detector slowdown gate: the paper's §4.5 ratio, a detector's cost over
the bare run on the same SIP workload, may not grow past its bound.

Usage:
    python3 perfbench/run.py --workload sip-live --seed 1 --seconds 3 \
        --trace 1 > perfbench_sip_trace.txt
    python3 ci/check_slowdown.py perfbench_sip_trace.txt \
        [--baseline ci/slowdown_baseline.json]

The last line of RESULT is perfbench's result line.  For each of the four
configurations perfbench times live (original, hwlc, hwlc_dr, fasttrack)
the run fails when detector.slowdown.<config> exceeds the committed
baseline divided by KEEP, i.e. when the detector keeps less than 60% of
the throughput, relative to the bare run, that it had in the baseline.
The ratio is relative to the bare run of the same process, so machine
speed cancels; the bound is wide because a 3 s run on a shared runner
spreads by about 1.2x between runs.

Exit status: 0 within bounds, 1 on a regression, 2 on a missing or empty
baseline, a result line that does not parse, a missing metric, or an
unknown flag.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = ("original", "hwlc", "hwlc_dr", "fasttrack")
KEEP = 0.6


def refuse(msg: str) -> None:
    print(f"slowdown gate: {msg}", file=sys.stderr)
    sys.exit(2)


def load_baseline(path: str) -> dict:
    try:
        with open(path) as f:
            base = json.load(f).get("slowdown") or {}
    except (OSError, ValueError, AttributeError) as e:
        refuse(f"cannot read baseline {path}: {e}")
    if not base:
        refuse(f"baseline {path} has no slowdown values")
    missing = [c for c in CONFIGS if not isinstance(base.get(c), (int, float))]
    if missing:
        refuse(f"baseline {path} misses {missing}")
    return base


def load_result(path: str) -> dict:
    try:
        with open(path) as f:
            lines = f.read().strip().splitlines()
        metrics = json.loads(lines[-1])["metrics"]
        if not isinstance(metrics, dict):
            raise TypeError("metrics is not an object")
        return metrics
    except (OSError, ValueError, IndexError, KeyError, TypeError) as e:
        refuse(f"no perfbench result line in {path}: {e}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("result", help="perfbench --trace 1 output; its last line is read")
    ap.add_argument(
        "--baseline", default=os.path.join(ROOT, "ci", "slowdown_baseline.json")
    )
    args = ap.parse_args()
    base = load_baseline(args.baseline)
    metrics = load_result(args.result)
    regressions = 0
    for c in CONFIGS:
        name = f"detector.slowdown.{c}"
        entry = metrics.get(name)
        value = entry.get("value") if isinstance(entry, dict) else None
        if not isinstance(value, (int, float)) or not value > 0:
            refuse(f"result line has no positive {name}: {entry!r}")
        bound = base[c] / KEEP
        verdict = "ok" if value <= bound else "REGRESSION"
        print(f"{name}: {value:.3f}x (baseline {base[c]:.3f}x, bound {bound:.3f}x) {verdict}")
        if value > bound:
            regressions += 1
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
