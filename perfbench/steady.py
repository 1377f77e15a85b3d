#!/usr/bin/env python3
"""Steadiness report of the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--workload W ...]

Run from the root of a checkout.  Makes two sets of runs of every
workload (the second set starts a minute after the first has ended),
each run with its own seed, and prints per set and end-to-end metric the
median and quartiles, the spread (interquartile distance over the
median) and whether the two sets agree within the bounds of
BENCHMARK.json:

  - every spread is within the metric's bound;
  - no metric's second median is worse than its first by more than the
    bound;
  - the share of failed operations is the same in both sets.

Exits 0 when they agree, 1 when they do not.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

SETS = 2
PAUSE_S = 60
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - t0
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    p.add_argument("--workload", action="append", help="default: every workload")
    a = p.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    sets = []
    seed = FIRST_SEED
    for k in range(SETS):
        if k > 0:
            time.sleep(PAUSE_S)
        runs = {}
        for w in workloads:
            runs[w] = []
            for _ in range(a.runs):
                r = run_once(w, seed, seconds)
                seed += 1
                runs[w].append(r)
                print(f"set {k + 1} {w} seed {seed - 1}: {r['wall_s']:.1f} s, "
                      f"attempted {r['attempted']} failed {r['failed']} "
                      f"correct {r['correct']}", file=sys.stderr, flush=True)
        sets.append(runs)

    agree = True
    for w in workloads:
        print(f"\n== {w} ==")
        print(f"{'metric':<16} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, m in metrics.items():
            meds = []
            for k, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs[w]]
                med, q1, q3, spread = summary(vals)
                meds.append(med)
                ok = spread <= m["bound"]
                agree &= ok
                print(f"{name:<16} {k + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{100 * spread:>7.2f}% {m['bound']:>6} {'' if ok else 'SPREAD'}")
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            ok = worse <= m["bound"]
            agree &= ok
            print(f"{'':<16} second set {100 * worse:+.2f}% worse "
                  f"{'' if ok else 'DRIFT'}")
        shares = []
        for runs in sets:
            att = sum(r["attempted"] for r in runs[w])
            fail = sum(r["failed"] for r in runs[w])
            shares.append((fail, att))
            agree &= all(r["correct"] for r in runs[w])
        print("failed/attempted per set: " + ", ".join(f"{f}/{t}" for f, t in shares))
        if shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            agree = False
            print("failed share differs between the sets")
    print("\nthe sets agree within the bounds" if agree else "\nthe sets DO NOT agree")
    sys.exit(0 if agree else 1)


if __name__ == "__main__":
    main()
