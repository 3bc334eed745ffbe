#!/usr/bin/env python3
"""Build bench_gcx from this checkout's sources and run one measurement.

    python3 bench_gcx/run.py --workload xmark_scan --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The benchmark package is configured in
Release mode under .bench_build/bench_gcx (the first run builds the gcx
library, later runs only check that it is up to date), then bench_gcx runs
the one workload. Build output goes to stderr; stdout carries bench_gcx's
metric lines and, as its last line, the JSON result object
{"correct", "attempted", "failed", "metrics"}. Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "bench_gcx")
BUILD = os.path.join(ROOT, ".bench_build", "bench_gcx")
BINARY = os.path.join(BUILD, "bench_gcx")


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} holds no gcx sources (CMakeLists.txt, src/) to build")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4", "--target", "bench_gcx"])
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    build()
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--out", BUILD],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"bench_gcx exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("bench_gcx printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: " + ", ".join(sorted(result)))
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
