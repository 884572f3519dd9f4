#!/usr/bin/env python3
"""Steadiness report: two interleaved sets of runs of the same build.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]

Run from the repository root. Every run lasts BENCHMARK.json's
run_seconds. For each workload, seed i (i = 1..runs) is run once for set
A and then once for set B, so slow drift of the machine lands in both
sets alike. For every end-to-end metric the report prints each set's
median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median of each set, and how much worse set B's median is than
set A's, all against the metric's bound from BENCHMARK.json.

The verdicts follow the rule the benchmark is accepted by. A spread above
the bound, or a set-to-set worsening above the bound, is "FAIL", and the
exit status is then 1. The spread of setup_s is not held to its bound:
each run times only a few set-ups, so a run's setup_s carries the noise of
a few seconds of the machine, and only the median over a set is compared.
A spread above a third of the bound (setup_s included) is flagged "wide".
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, check=False)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit("steadiness: %s seed %d failed (exit %d)"
                         % (workload, seed, res.returncode))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for seed in range(1, args.runs + 1):
            for name in ("A", "B"):
                sets[name].append(run_once(workload, seed, seconds))
                print("  %s seed %d set %s: %s" % (
                    workload, seed, name, " ".join(
                        "%s=%.6g" % kv for kv in sets[name][-1].items())),
                      file=sys.stderr, flush=True)
        print("\n%s (%d runs per set, seeds 1..%d, %g s)" % (
            workload, args.runs, args.runs, seconds))
        print("%-16s %-5s %12s %12s %12s %7s %7s %7s  %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "B-worse",
            "bound", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = {k: summary([r[name] for r in v]) for k, v in sets.items()}
            med_a, med_b = stats["A"][0], stats["B"][0]
            worse = (med_b - med_a) / med_a if med_a else 0.0
            if m["better"] == "higher":
                worse = -worse
            verdict = "ok"
            spreads = [stats[k][3] for k in ("A", "B")]
            # setup_s: only the drift is gated; see the module docstring.
            if name != "setup_s" and max(spreads) > bound:
                verdict = "FAIL spread"
            elif worse > bound:
                verdict = "FAIL drift"
            elif max(spreads) > bound / 3:
                verdict = "wide"
            if verdict.startswith("FAIL"):
                ok = False
            for k in ("A", "B"):
                med, q1, q3, spread = stats[k]
                print("%-16s %-5s %12.6g %12.6g %12.6g %6.2f%% %6s %6.2f%%  %s" % (
                    name if k == "A" else "", k, med, q1, q3, 100 * spread,
                    "%.2f%%" % (100 * worse) if k == "B" else "",
                    100 * bound, verdict if k == "B" else ""))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
