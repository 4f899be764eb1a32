#!/usr/bin/env python3
"""Build and run the PARALAGG benchmark.

    python3 perfbench/run.py --workload sssp-rmat --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Configures and builds perfbench/ (which
pulls in ../src) into $CARGO_TARGET_DIR, default .bench_build, then runs
one workload.  The build output goes to stderr; the benchmark's report goes
to stdout, and its last line is the JSON result.  Exits non-zero, without a
result line, if the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sssp-rmat", "pagerank-ssp", "serve-mixed")
RUN_TIMEOUT_S = 170


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in generated):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "paralagg_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    # A failed run prints its report to stderr, so stdout holds no result.
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: benchmark exited {proc.returncode}", file=sys.stderr)
        return 1
    try:
        json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        print("perfbench: no JSON result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
