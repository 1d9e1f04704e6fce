#!/usr/bin/env python3
"""Builds and runs the repository benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload fleet_packet --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench (the library compiled from src/) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later runs rebuild incrementally. The
last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. The line before it is the full report: host fingerprint,
every metric with the layer run it came from, run facts and failed checks.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_packet", "fleet_packet_obs", "fleet_analytic", "bts_compare")
RUN_TIMEOUT_S = 170
# Sources whose bytes define the measured program (for the fingerprint).
SOURCE_ROOTS = ("src", "bench/bench_util.hpp", "bench/bench_util.cpp")


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def repo_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=False)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest(root):
    """sha256 over the library sources, so checkouts without git still differ."""
    h = hashlib.sha256()
    paths = []
    for entry in SOURCE_ROOTS:
        full = os.path.join(root, entry)
        if os.path.isfile(full):
            paths.append(entry)
            continue
        for dirpath, _, files in os.walk(full):
            paths.extend(os.path.relpath(os.path.join(dirpath, f), root) for f in files)
    for rel in sorted(paths):
        h.update(rel.encode())
        with open(os.path.join(root, rel), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       cwd=root, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   cwd=root, stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def check_exports(export_dir, info, checks):
    """The fleet_packet_obs artifacts must parse and hold what the hub held."""
    try:
        with open(os.path.join(export_dir, "trace.jsonl"), encoding="utf-8") as f:
            lines = sum(1 for line in f if json.loads(line) is not None)
        with open(os.path.join(export_dir, "spans.json"), encoding="utf-8") as f:
            spans = len(json.load(f)["spans"])
        with open(os.path.join(export_dir, "metrics.json"), encoding="utf-8") as f:
            doc = json.load(f)
            series = sum(len(doc[k]) for k in ("counters", "gauges", "histograms"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        checks.append(f"obs exports parse ({e})")
        return
    if (lines, spans, series) != (info.get("export.trace_lines"), info.get("export.spans"),
                                  info.get("export.metric_series")):
        checks.append(f"obs exports hold what the hub held: {lines} trace lines, "
                      f"{spans} spans, {series} metric series")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny shrinks every workload for the smoke test")
    parser.add_argument("--report", help="also write the full report to this file")
    args = parser.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    for needed in ("src/CMakeLists.txt", "bench/bench_util.cpp", "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"run from the repository root: {needed} is missing", 2)
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        program = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}", 3)

    out_dir = os.path.join(build_dir, "runs", f"{args.workload}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [program, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--out-dir", out_dir]
    if args.size == "tiny":
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
        if proc.returncode != 0 or not proc.stdout.strip():
            fail(f"benchmark exited with {proc.returncode}", 4)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        checks = list(result["check_failures"])
        if args.trace == "0" and "export_dir" in result["info"]:
            check_exports(result["info"]["export_dir"], result["info"], checks)
    except subprocess.TimeoutExpired:
        fail(f"benchmark ran past {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"benchmark did not report {m['name']}", 5)
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} has unit {got['unit']}, BENCHMARK.json says {m['unit']}", 5)
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    info = result["info"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "size": args.size,
        "fingerprint": {
            "cpu_model": cpu_model(),
            "hw_threads": os.cpu_count(),
            "build_type": info.pop("build_type", "unknown"),
            "compiler": info.pop("compiler", "unknown"),
            "repo_sha": repo_sha(root),
            "source_digest": source_digest(root),
        },
        "metrics": result["metrics"],
        "info": info,
        "check_failures": checks,
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not checks, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
