#!/usr/bin/env python3
"""Steadiness report for the PARALAGG benchmark.

Runs one workload once per seed through run.py and prints, for every
end-to-end metric in BENCHMARK.json, the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median and the
metric's bound.  A spread above a third of its bound is flagged.

    python3 perfbench/steady.py --workload serve-mixed --seeds 1-10 --save a.json
    python3 perfbench/steady.py --compare a.json b.json

--compare checks two saved sets of runs of the same code against each
other: each metric's second median may be worse than the first by at most
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_set(spec, workload, seeds, trace):
    runs = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        flag = "" if result["correct"] and result["failed"] == 0 else "  FAILED"
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}{flag}",
              file=sys.stderr)
        runs.append(result)
    return {"workload": workload, "seeds": seeds, "runs": runs}


def values(result_set, name):
    return [r["metrics"][name]["value"] for r in result_set["runs"]]


def report(spec, result_set):
    print(f"workload {result_set['workload']}, {len(result_set['runs'])} runs, "
          f"seeds {result_set['seeds']}")
    print(f"{'metric':<16}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}{'bound':>8}  verdict")
    steady = True
    for m in spec["end_to_end"]:
        v = values(result_set, m["name"])
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread < m["bound"] / 3
        # setup_s is exempt from the spread rule; it is still reported.
        if not ok and m["name"] != "setup_s":
            steady = False
        verdict = "ok" if ok else ("wide (exempt)" if m["name"] == "setup_s" else "WIDE")
        print(f"{m['name']:<16}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{spread:>9.4f}"
              f"{m['bound']:>8.3f}  {verdict}")
    failed = sum(r["failed"] for r in result_set["runs"])
    print(f"failed operations: {failed}")
    return steady and failed == 0


def compare(spec, first, second):
    ok = True
    print(f"{'metric':<16}{'median 1':>16}{'median 2':>16}{'change':>9}{'bound':>8}  verdict")
    for m in spec["end_to_end"]:
        a = statistics.median(values(first, m["name"]))
        b = statistics.median(values(second, m["name"]))
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        good = worse <= m["bound"]
        ok = ok and good
        print(f"{m['name']:<16}{a:>16.6g}{b:>16.6g}{worse:>+9.4f}{m['bound']:>8.3f}  "
              f"{'ok' if good else 'WORSE'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        return 0 if compare(spec, *sets) else 1
    if not args.workload:
        ap.error("--workload or --compare is required")
    result_set = run_set(spec, args.workload, parse_seeds(args.seeds), 0)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(result_set, f, indent=1)
    return 0 if report(spec, result_set) else 1


if __name__ == "__main__":
    sys.exit(main())
