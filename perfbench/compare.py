#!/usr/bin/env python3
"""Compares two benchmark reports under the fingerprint rule.

    python3 perfbench/compare.py BASE.json NEW.json

Each file is a report written by `run.py --report FILE`. Metrics listed as
exact in perfbench/workloads.json (counts and fidelity) are compared on any
pair of hosts and must be equal. All other metrics are wall times and
host-dependent; they are compared only when both reports carry the same
host fingerprint (CPU model, hw threads, build type, compiler), against the
metric's bound in BENCHMARK.json where it has one. Exits 1 if an exact
metric differs or a bounded metric worsened past its bound, else 0.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu_model", "hw_threads", "build_type", "compiler")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    base, new = (json.load(open(p, encoding="utf-8")) for p in sys.argv[1:])
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as f:
        exact = set(json.load(f)["exact_metrics"])
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    same_host = all(base["fingerprint"][k] == new["fingerprint"][k] for k in HOST_KEYS)
    if (base["workload"], base["seed"]) != (new["workload"], new["seed"]):
        print("note: different workload or seed; exact metrics need not match")
    print(f"host fingerprints {'match' if same_host else 'differ: wall times skipped'}")
    bad = 0
    for name in sorted(base["metrics"].keys() & new["metrics"].keys()):
        a = base["metrics"][name]["value"]
        b = new["metrics"][name]["value"]
        if name in exact:
            verdict = "equal" if a == b else "DIFFERS"
            bad += a != b
        elif not same_host:
            continue
        elif name in bounds and a:
            m = bounds[name]
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            verdict = f"{worse:+.3f} worse (bound {m['bound']})"
            if worse > m["bound"]:
                verdict += " REGRESSED"
                bad += 1
        else:
            verdict = f"{(b - a) / a:+.3f}" if a else "-"
        print(f"  {name:<40} {a:<14.6g} {b:<14.6g} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
