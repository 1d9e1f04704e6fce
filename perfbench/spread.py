#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py [--workloads fleet_packet,bts_compare] [--seeds 10]
                                [--first-seed 1] [--out spread.json]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and the
BENCHMARK.json run length, then prints for every end-to-end metric its median
and the distance between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Run from the repository root; seeds run one after another.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write every run's metrics and the spreads here")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    results = {}
    worst = 0.0
    for workload in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run.py exited {proc.returncode}")
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"] or last["failed"]:
                print(f"{workload} seed {seed}: incorrect or failed tests")
                return 1
            runs.append({k: v["value"] for k, v in last["metrics"].items()})
        rows = {}
        print(f"\n{workload} ({len(runs)} seeds)")
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows[m["name"]] = {"median": median, "spread": spread, "values": values}
            flag = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"]
                                                        else "  > BOUND")
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:<16} median {median:<14.6g} spread {spread:7.4f}"
                  f"  bound {m['bound']:.3f}{flag}")
        results[workload] = rows
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
