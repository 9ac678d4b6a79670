#!/usr/bin/env python3
"""Runs each workload N times with different seeds and prints, for every
metric, the median, the quartiles and the spread (quartile distance as a
share of the median), next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--trace 0|1]
                                [--workloads a,b] [--first-seed 1]
                                [--out results.json]

Run from the repository root. The quartiles are Python's
statistics.quantiles(values, n=4); a spread below a third of the metric's
bound is marked steady. Each run's failed/attempted share is printed too.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            t0 = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            took = time.time() - t0
            if p.returncode != 0:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            result["seed"], result["wall_s"] = seed, took
            runs.append(result)
            share = result["failed"] / result["attempted"]
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed share={share:.6f} wall={took:.1f}s", file=sys.stderr)
            ok &= result["correct"]
        raw[w] = runs
        if not runs:
            continue
        print(f"\n{w} ({len(runs)} runs)")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            b = f"{bound:.2f}" if bound is not None else ""
            print(f"  {name + ' (' + unit + ')':<34} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.3f} {b:>6} {mark}")
    if args.out:
        json.dump(raw, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
