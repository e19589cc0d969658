#!/usr/bin/env python3
"""par-smoke gate: the quick chaos grid is digest-identical at every
domain count, and on a runner with at least 4 CPUs it scales.

Usage (from anywhere; dune must be on PATH):
    python3 ci/check_par_digests.py

Builds bin/experiments.exe, then runs `chaos --quick --json` once per
domain count in 1, 2, 4, 8, timing each leg's process.  Checks, in order:
  1. every leg exits 0 and writes a raceguard-chaos/1 report with at
     least one cell, whose per-cell (sig_digest, behavior_digest) and
     matrix digest are byte-identical to the committed sequential pin
     ci/chaos_quick_digests.json;
  2. only when this runner has >= 4 CPUs: the 4-domain leg is more than
     1.5x faster than the 1-domain leg.

Digest equality is unconditional: it holds on any machine.  The speedup
check is hardware-dependent, so it is skipped (with a notice) on small
runners.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "bin", "experiments.exe")
PIN = os.path.join(ROOT, "ci", "chaos_quick_digests.json")
DOMAINS = (1, 2, 4, 8)
MIN_SPEEDUP_AT_4 = 1.5


def fail(msg: str) -> None:
    print(f"par-smoke FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_chaos(x: dict, pin: dict, domains: int) -> None:
    if x.get("schema") != "raceguard-chaos/1":
        fail(f"chaos schema {x.get('schema')!r}")
    if x["seed"] != pin["seed"]:
        fail(f"seed mismatch: run {x['seed']} vs pin {pin['seed']}")
    cells = x["cells"]
    if not cells:
        fail(f"chaos report at {domains} domain(s) has no cells")
    if len(cells) != len(pin["cells"]):
        fail(f"cell count {len(cells)} vs pinned {len(pin['cells'])}")
    for i, (got, want) in enumerate(zip(cells, pin["cells"])):
        key = (want["plan"], want["test"], want["resilient"])
        if (got["plan"], got["test"], got["resilient"]) != key:
            fail(f"cell {i} is {got['plan']}/{got['test']} — grid order changed")
        for field in ("sig_digest", "behavior_digest"):
            if got[field] != want[field]:
                fail(
                    f"domains={domains} cell {i} ({'/'.join(map(str, key))}) "
                    f"{field} {got[field]} != pinned {want[field]}"
                )
    if x["summary"]["matrix_digest"] != pin["matrix_digest"]:
        fail(
            f"domains={domains} matrix digest {x['summary']['matrix_digest']} "
            f"!= pinned {pin['matrix_digest']}"
        )


def run_leg(domains: int, out: str) -> float:
    t0 = time.monotonic()
    proc = subprocess.run(
        [EXE, "chaos", "--quick", "--json", "--domains", str(domains), "--out", out],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    seconds = time.monotonic() - t0
    if proc.returncode != 0:
        fail(f"chaos --quick at {domains} domain(s) exited {proc.returncode}")
    return seconds


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    pin = json.load(open(PIN))
    if pin.get("schema") != "raceguard-chaos-digests/1":
        fail(f"pin schema {pin.get('schema')!r}")
    build = subprocess.run(["dune", "build", "./bin/experiments.exe"], cwd=ROOT)
    if build.returncode != 0:
        fail("dune build ./bin/experiments.exe failed")
    seconds = {}
    with tempfile.TemporaryDirectory() as tmp:
        for d in DOMAINS:
            out = os.path.join(tmp, f"chaos_d{d}.json")
            seconds[d] = run_leg(d, out)
            check_chaos(json.load(open(out)), pin, d)
            print(
                f"chaos: domains={d}: {len(pin['cells'])} cell digests identical to "
                f"the sequential pin in {seconds[d]:.2f} s "
                f"(speedup {seconds[1] / seconds[d]:.2f})"
            )
    cpus = os.cpu_count() or 1
    speedup = seconds[1] / seconds[4]
    if cpus >= 4:
        if speedup <= MIN_SPEEDUP_AT_4:
            fail(
                f"4-domain speedup {speedup:.2f} <= {MIN_SPEEDUP_AT_4} "
                f"on a {cpus}-CPU runner"
            )
        print(f"scaling: 4-domain speedup {speedup:.2f} (> {MIN_SPEEDUP_AT_4}, {cpus} CPUs)")
    else:
        print(
            f"scaling: speedup check skipped ({cpus} CPU(s) < 4); "
            f"digest equality across legs verified"
        )
    print("par-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
