#!/usr/bin/env python3
"""par-smoke gate: a --domains N run must be digest-identical to the
committed sequential run, and the bench scaling suite must be sane.

Usage:
    python3 ci/check_par_digests.py \
        --chaos chaos_par.json --pin ci/chaos_quick_digests.json \
        --bench BENCH_par.json --baseline bench/baseline.json

Checks, in order:
  1. the chaos report parses, has schema raceguard-chaos/1, has at
     least one cell, and every per-cell (sig_digest, behavior_digest)
     plus the matrix digest is byte-identical to the committed
     sequential pin;
  2. the bench JSON parses, has schema raceguard-bench/2, has at least
     one results row, and every (workload, config) row's sig_digest
     equals the committed baseline's row (parallel audit == sequential
     audit);
  3. the scaling array's legs all carry the same digest (the bench
     binary already exits 2 on mismatch; this re-asserts from the
     artifact), and — only when this runner has >= 4 CPUs — the
     4-domain leg shows > 1.5x speedup over the 1-domain leg.

Digest equality is unconditional: it holds on any machine.  The
speedup check is hardware-dependent, so it is skipped (with a notice)
on small runners.
"""
import argparse
import json
import os
import sys


def fail(msg: str) -> None:
    print(f"par-smoke FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_chaos(chaos_path: str, pin_path: str) -> None:
    x = json.load(open(chaos_path))
    pin = json.load(open(pin_path))
    if x.get("schema") != "raceguard-chaos/1":
        fail(f"chaos schema {x.get('schema')!r}")
    if pin.get("schema") != "raceguard-chaos-digests/1":
        fail(f"pin schema {pin.get('schema')!r}")
    if x["seed"] != pin["seed"]:
        fail(f"seed mismatch: run {x['seed']} vs pin {pin['seed']}")
    cells = x["cells"]
    if not cells:
        fail("chaos report has no cells")
    if len(cells) != len(pin["cells"]):
        fail(f"cell count {len(cells)} vs pinned {len(pin['cells'])}")
    for i, (got, want) in enumerate(zip(cells, pin["cells"])):
        key = (want["plan"], want["test"], want["resilient"])
        if (got["plan"], got["test"], got["resilient"]) != key:
            fail(f"cell {i} is {got['plan']}/{got['test']} — grid order changed")
        for field in ("sig_digest", "behavior_digest"):
            if got[field] != want[field]:
                fail(
                    f"cell {i} ({'/'.join(map(str, key))}) {field} "
                    f"{got[field]} != pinned {want[field]}"
                )
    if x["summary"]["matrix_digest"] != pin["matrix_digest"]:
        fail(
            f"matrix digest {x['summary']['matrix_digest']} "
            f"!= pinned {pin['matrix_digest']}"
        )
    print(
        f"chaos: {len(cells)} cell digests at domains={x.get('domains')} "
        f"identical to the sequential pin (matrix {pin['matrix_digest']})"
    )


def check_bench(bench_path: str, baseline_path: str) -> list:
    x = json.load(open(bench_path))
    base = json.load(open(baseline_path))
    if x.get("schema") != "raceguard-bench/2":
        fail(f"bench schema {x.get('schema')!r}")
    if base.get("schema") != "raceguard-bench/2":
        fail(f"baseline schema {base.get('schema')!r}")
    want = {
        (r["workload"], r["config"]): r["sig_digest"] for r in base["results"]
    }
    if not x["results"]:
        fail("bench JSON has no results rows")
    checked = 0
    for r in x["results"]:
        key = (r["workload"], r["config"])
        if key not in want:
            fail(f"row {key} missing from the committed baseline")
        if r["sig_digest"] != want[key]:
            fail(
                f"row {'/'.join(key)} sig_digest {r['sig_digest']} "
                f"!= baseline {want[key]}"
            )
        checked += 1
    print(
        f"bench: {checked} row sig_digests at domains={x.get('domains')} "
        f"identical to bench/baseline.json"
    )
    return x["scaling"]


def check_scaling(scaling: list) -> None:
    if not scaling:
        fail("bench JSON has no scaling array")
    digests = {leg["digest"] for leg in scaling}
    if len(digests) != 1:
        fail(f"scaling legs disagree on digest: {sorted(digests)}")
    by_domains = {leg["domains"]: leg for leg in scaling}
    for d in (1, 2, 4, 8):
        if d not in by_domains:
            fail(f"scaling array misses the {d}-domain leg")
    cpus = os.cpu_count() or 1
    leg4 = by_domains[4]
    if cpus >= 4:
        if leg4["speedup"] <= 1.5:
            fail(
                f"4-domain speedup {leg4['speedup']:.2f} <= 1.5 "
                f"on a {cpus}-CPU runner"
            )
        print(f"scaling: 4-domain speedup {leg4['speedup']:.2f} (> 1.5, {cpus} CPUs)")
    else:
        print(
            f"scaling: speedup check skipped ({cpus} CPU(s) < 4); "
            f"digest equality across legs verified"
        )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--chaos", required=True)
    ap.add_argument("--pin", required=True)
    ap.add_argument("--bench", required=True)
    ap.add_argument("--baseline", required=True)
    args = ap.parse_args()
    check_chaos(args.chaos, args.pin)
    scaling = check_bench(args.bench, args.baseline)
    check_scaling(scaling)
    print("par-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
