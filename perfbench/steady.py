#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds and reports, per
workload and end-to-end metric, the median and the quartile spread
(Q3 - Q1, from statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--repeat 2]

Run from the repository root. A metric passes when its spread is at most
a third of its bound. setup_s is the exception: its spread is printed but
not gated, because a set-up is a few hundred ms of parsing whose figure
follows the machine's speed drift more than any per-op metric does; its
agreement between rounds is gated like every other metric's. With
--repeat 2 every seed runs twice and the work fingerprints of the two runs
must be identical; the medians of the two rounds are compared against the
bounds as well.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout.strip().splitlines()
    result = json.loads(out[-1])
    fingerprint = next(l for l in out if l.startswith("fingerprint "))
    return result, fingerprint


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        rounds = []
        prints = {}
        for _ in range(args.repeat):
            values = {name: [] for name in bounds}
            for seed in args.seeds:
                result, fingerprint = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: {result['failed']} failed", flush=True)
                    ok = False
                if prints.setdefault(seed, fingerprint) != fingerprint:
                    print(f"{workload} seed {seed}: fingerprint changed", flush=True)
                    ok = False
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds) +
                    " " + fingerprint, file=sys.stderr, flush=True)
            rounds.append(values)
        for name, m in bounds.items():
            meds = []
            for values in rounds:
                med, rel = spread(values[name])
                meds.append(med)
                third = rel <= m["bound"] / 3
                gated = name != "setup_s"
                ok &= third or not gated
                verdict = ("ok" if third else "WIDE") if gated else "not gated"
                print(f"{workload:16} {name:17} median {med:12.6g} spread {rel:7.4f} "
                      f"bound {m['bound']:.3f} {verdict}", flush=True)
            for later in meds[1:]:
                worse = (meds[0] - later) / meds[0] if m["better"] == "higher" \
                    else (later - meds[0]) / meds[0]
                within = worse <= m["bound"]
                ok &= within
                print(f"{workload:16} {name:17} second median moved {worse:+.4f} "
                      f"{'ok' if within else 'OUT'}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
