#!/usr/bin/env python3
"""Smoke test of the benchmark itself; run from the repository root.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at the tiny size, untraced and traced,
twice each, and asserts that:
  * every end-to-end (untraced) and per-layer (traced) metric is reported,
    with a unit, and every run is correct with no failed test;
  * every metric name matches [A-Za-z0-9_.-]+;
  * the metrics perfbench/workloads.json lists as exact repeat exactly;
  * the end-to-end and per-layer lists hold at most 16 and 128 entries;
  * run.py refuses, without a result line, a directory that holds only
    BENCHMARK.json and perfbench/.
Exits 0 when all hold, 1 otherwise.
"""
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(workload, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", trace, "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300,
        check=False)
    return proc


def main():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        exact = set(json.load(f)["exact_metrics"])
    problems = []
    if len(spec["end_to_end"]) > 16 or len(spec["per_layer"]) > 128:
        problems.append("metric lists exceed 16 end-to-end / 128 per-layer entries")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not m["unit"]:
            problems.append(f"bad metric name or unit: {m}")

    for w in spec["workloads"]:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            values = []
            for attempt in range(2):
                proc = run(w["name"], trace)
                if proc.returncode != 0:
                    problems.append(f"{w['name']} trace {trace}: run.py exited {proc.returncode}")
                    break
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                report = json.loads(lines[-2])["report"]
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"{w['name']} trace {trace}: incorrect run "
                                    f"{report['check_failures']}")
                for m in listed:
                    got = result["metrics"].get(m["name"])
                    if got is None or not got.get("unit"):
                        problems.append(f"{w['name']} trace {trace}: {m['name']} missing")
                for name in report["metrics"]:
                    if not NAME.match(name):
                        problems.append(f"{w['name']}: reported name {name!r}")
                values.append({k: v["value"] for k, v in result["metrics"].items()})
            if len(values) == 2:
                for name in sorted(exact & values[0].keys()):
                    if values[0][name] != values[1].get(name):
                        problems.append(f"{w['name']} trace {trace}: {name} did not repeat "
                                        f"({values[0][name]} vs {values[1].get(name)})")
            print(f"{w['name']} trace {trace}: done", flush=True)

    # A directory with only the benchmark's own files must be refused.
    bare = os.path.join(".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180,
        check=False)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py did not refuse a directory without the library")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL: {p}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
