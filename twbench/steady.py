#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code
must agree within the bounds of BENCHMARK.json.

    python3 twbench/steady.py --runs 10

Runs every workload of BENCHMARK.json, at its run_seconds, ``--runs`` times
in each of two sets, A and B, in the order A(w1) .. A(wn) B(w1) .. B(wn) and
again, each run with its own seed (A: 1..N, B: 101..100+N).  For every
end-to-end metric it prints each set's median and quartile spread
((Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives the quartiles)
against the metric's bound, and the shift of B's median from A's in the
worse direction; both are held to the bound on every metric.  It also
prints the median time of the runs' reference loop per set, which does not
use the program: when it moved as much as the metrics did, the machine
drifted.
Raw results go to twbench/out/steady-<time>.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    loop = re.search(r"reference_loop_ms: start ([\d.]+) end ([\d.]+)", proc.stdout)
    result = json.loads(lines[-1])
    result["reference_loop_ms"] = (float(loop.group(1)) + float(loop.group(2))) / 2
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = {w: {"A": [], "B": []} for w in workloads}
    started = time.time()
    for i in range(args.runs):
        for label, seed in (("A", 1 + i), ("B", 101 + i)):
            for w in workloads:
                results[w][label].append(run_once(w, seed, seconds))
                print(f"[{time.time() - started:7.0f} s] {label} {w} seed {seed} done", flush=True)

    ok = True
    print(f"\n{'workload':<20} {'metric':<13} {'bound':>6} {'A median':>11} {'A spread':>9} "
          f"{'B median':>11} {'B spread':>9} {'shift':>7}")
    for w in workloads:
        sets = results[w]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            shift = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            sa, sb = spread(a), spread(b)
            bad = shift > bound or max(sa, sb) > bound
            ok &= not bad
            print(f"{w:<20} {name:<13} {bound:>6.2f} {statistics.median(a):>11.4g} {sa:>9.3f} "
                  f"{statistics.median(b):>11.4g} {sb:>9.3f} {shift:>+7.3f}{'  OVER BOUND' if bad else ''}")
        shares = {
            label: {r["failed"] / r["attempted"] for r in sets[label]} for label in ("A", "B")
        }
        correct = all(r["correct"] for label in ("A", "B") for r in sets[label])
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= correct and same_share
        loops = [statistics.median(r["reference_loop_ms"] for r in sets[label]) for label in ("A", "B")]
        print(f"{w:<20} correct: {correct}  failed share: {sorted(shares['A'] | shares['B'])}  "
              f"reference loop ms: A {loops[0]:.2f} B {loops[1]:.2f}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as f:
        json.dump({"runs": args.runs, "seconds": seconds, "results": results}, f)
    print(f"\n{'steady' if ok else 'NOT steady'}; raw results in {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
