#!/usr/bin/env python3
"""Steadiness mode: run each workload N times with different seeds and print,
per end-to-end metric, the median, the quartiles and the spread (Q3 - Q1) /
median against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 sesbench/steady.py --runs 10                 # every workload
    python3 sesbench/steady.py --runs 5 --workload solve-sparse --out a.json
    python3 sesbench/steady.py --compare a.json b.json   # median drift

Quartiles are Python's statistics.quantiles(values, n=4). A spread within a
third of the bound is reported as `steady`, within the bound as `ok`, and
beyond it as `UNSTEADY`. `--compare` reports, per workload and metric, how
far the second set's median moved from the first's, against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr[-3000:])
        print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
        return None, elapsed
    return result, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(bench, results):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = "steady"
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, s = spread(values)
            bound = bounds[name]
            if s <= bound / 3:
                verdict = "steady"
            elif s <= bound:
                verdict = "ok"
                worst = "ok" if worst == "steady" else worst
            else:
                verdict = "UNSTEADY"
                worst = "UNSTEADY"
            print(f"  {name:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {s:>8.4f} {bound:>6}  {verdict}")
    print(f"\noverall: {worst}")
    return worst


def compare(bench, a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ok = True
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        for workload in a:
            if workload not in b:
                continue
            ma = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            mb = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            worse = sign * (mb - ma) / ma
            flag = "REGRESSED" if worse > bound else "ok"
            ok &= flag == "ok"
            print(f"{workload:<13} {name:<20} {ma:>12.4f} -> {mb:>12.4f}  worse by {worse:+.4f} (bound {bound})  {flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        sys.exit(0 if compare(bench, *args.compare) else 1)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    results = {}
    failures = 0
    for workload in workloads:
        results[workload] = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result, elapsed = run_once(bench, workload, seed, 0)
            print(f"{workload} seed {seed}: {elapsed:.1f} s", file=sys.stderr)
            if result is None:
                failures += 1
                continue
            results[workload].append(result)
            if args.out:
                with open(args.out, "w") as f:
                    json.dump(results, f, indent=1)
    results = {w: runs for w, runs in results.items() if len(runs) >= 2}
    verdict = summarize(bench, results)
    if failures:
        print(f"{failures} run(s) failed their checks")
    sys.exit(0 if verdict != "UNSTEADY" and not failures else 1)


if __name__ == "__main__":
    main()
