#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload sip-live --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds perfbench/bin/main.exe with dune
(shared build cache off, so nothing is written outside the checkout),
runs it with the given arguments, and passes its output through.  The
result line (the last line of stdout) is printed only if it carries
exactly the metrics BENCHMARK.json declares for the mode: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bin", "main.exe")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/bin/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([EXE] + argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    body, last = lines[:-1], lines[-1]
    for line in body:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        print("perfbench: no result line", file=sys.stderr)
        return run.returncode or 1
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    declared = declared_metrics(trace)
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        units = sorted(k for k in set(declared) & set(reported) if declared[k] != reported[k])
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}, unit mismatch {units}", file=sys.stderr)
        return 3
    print(last)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
