#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the BENCHMARK.json command once per (workload, seed), then prints
for each end-to-end metric the median over seeds and the interquartile
range as a share of that median (``statistics.quantiles(n=4)``), next to
the metric's bound. A spread above its bound means two sets of runs of
the same code can disagree by more than a regression allowance.

Usage, from the repository root:
    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3,4,5]
                                [--seconds S] [--out results.json]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="also write every run's metrics here as JSON")
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    results = {}
    ok = True
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            res = json.loads(last)
            if p.returncode != 0 or not res.get("correct"):
                print(f"{wl} seed {seed}: exit {p.returncode}, result {last}", file=sys.stderr)
                ok = False
            runs.append({k: v["value"] for k, v in res.get("metrics", {}).items()})
            print(f"{wl} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                  file=sys.stderr, flush=True)
        results[wl] = runs
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs if m["name"] in r]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            flag = "ok" if spread <= m["bound"] / 3 else ("WITHIN" if spread <= m["bound"] else "OVER")
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
            print(f"{wl:18} {m['name']:12} median {med:<12.6g} spread {spread:7.4f} "
                  f"bound {m['bound']:<5} {flag}", flush=True)
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
