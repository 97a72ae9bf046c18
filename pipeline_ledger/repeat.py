#!/usr/bin/env python3
"""Run one pipeline-ledger workload N times and summarise each metric.

    python3 pipeline_ledger/repeat.py --workload uw_4port --runs 10 \
        [--first-seed 1] [--seconds 20] [--trace 0] [--json out.json]

Each run uses the next seed (first-seed, first-seed + 1, ...). The script
builds the benchmark once, runs it from the repository root, and prints,
per metric, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median that
the benchmark's bounds are checked against, plus the failed share of
attempted operations per run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join("pipeline_ledger", "Cargo.toml")


def build():
    subprocess.run(
        ["cargo", "build", "--quiet", "--release", "--offline", "--manifest-path", MANIFEST],
        cwd=ROOT,
        check=True,
    )


def run_once(workload, seed, seconds, trace):
    cmd = [
        "cargo", "run", "--quiet", "--release", "--offline", "--manifest-path", MANIFEST, "--",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    wall = time.monotonic() - started
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def summarise(results):
    names = list(results[0]["metrics"])
    rows = []
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / med if med else float("inf")
        rows.append({"name": name, "unit": unit, "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "values": values})
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write the summary to this file")
    args = ap.parse_args()

    build()
    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        res, wall = run_once(args.workload, seed, args.seconds, args.trace)
        share = res["failed"] / res["attempted"]
        print(f"run {i + 1}/{args.runs} seed {seed}: {wall:.1f} s wall, "
              f"{res['attempted']} attempted, {res['failed']} failed ({share:.6f}), "
              f"correct={res['correct']}", file=sys.stderr)
        results.append(res)

    rows = summarise(results)
    print(f"{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, --seconds {args.seconds} --trace {args.trace}")
    print(f"{'metric':<32} {'unit':<8} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for r in rows:
        print(f"{r['name']:<32} {r['unit']:<8} {r['median']:>14.6g} {r['q1']:>14.6g} "
              f"{r['q3']:>14.6g} {r['spread']:>8.4f}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "runs": args.runs,
                       "first_seed": args.first_seed, "seconds": args.seconds,
                       "trace": args.trace, "metrics": rows,
                       "failed_shares": shares}, f, indent=1)


if __name__ == "__main__":
    main()
