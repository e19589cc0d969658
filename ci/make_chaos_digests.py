#!/usr/bin/env python3
"""Regenerate ci/chaos_quick_digests.json from a chaos report.

Usage:
    dune exec bin/experiments.exe -- chaos --quick --json --out chaos.json
    python3 ci/make_chaos_digests.py chaos.json > ci/chaos_quick_digests.json

The output is the committed sequential digest pin: CI's par-smoke job
asserts that a --domains N run of the same quick matrix reproduces
every per-cell digest (and the matrix digest) byte-for-byte.

Exits 1, writing nothing, when the report is not a raceguard-chaos/1
document, has no cells, or does not say summary.passed: a pin taken
from an empty or failing matrix would hold CI to nothing.
"""
import json
import sys


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    x = json.load(open(sys.argv[1]))
    if x.get("schema") != "raceguard-chaos/1":
        print(f"unexpected schema {x.get('schema')!r}", file=sys.stderr)
        return 1
    if not x.get("cells"):
        print("report has no cells: refusing to pin an empty matrix", file=sys.stderr)
        return 1
    if x.get("summary", {}).get("passed") is not True:
        print("report does not say summary.passed: refusing to pin a failing matrix",
              file=sys.stderr)
        return 1
    pin = {
        "schema": "raceguard-chaos-digests/1",
        "note": "committed sequential (--domains 1) per-cell digests of the "
        "quick chaos matrix, seed 7; CI's par-smoke job asserts any "
        "--domains N run reproduces them byte-for-byte. Refresh with: "
        "dune exec bin/experiments.exe -- chaos --quick --json --out chaos.json "
        "and ci/make_chaos_digests.py chaos.json > ci/chaos_quick_digests.json",
        "seed": x["seed"],
        "matrix_digest": x["summary"]["matrix_digest"],
        "cells": [
            {
                "plan": c["plan"],
                "test": c["test"],
                "resilient": c["resilient"],
                "sig_digest": c["sig_digest"],
                "behavior_digest": c["behavior_digest"],
            }
            for c in x["cells"]
        ],
    }
    json.dump(pin, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
