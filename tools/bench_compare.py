#!/usr/bin/env python3
"""Compare two bench report JSON files produced with `--json <path>`.

Usage:
    tools/bench_compare.py baseline.json current.json [--tolerance 0.05]

Each file is the {"name", "repo_sha", "config", "values"} document written
by benchutil::report_flush(), or the RunManifest JSONL file that
`swiftest-cli test|run|fleet --obs-dir DIR` writes as DIR/manifest.jsonl —
manifests are detected by their
{"type": "manifest"} header line and their "bench" lines become the value
set (config lines become the config, the build sha becomes repo_sha).
Values are compared with a relative tolerance (default 5%); values whose
baseline magnitude is below --abs-floor use an absolute tolerance instead,
so near-zero metrics do not trip on noise.

Wall-clock scaling values (names prefixed "wall_s_" or "speedup_") are only
meaningful between runs on comparable hosts: they are skipped with a warning
unless both reports carry the same "hw_threads" config entry and that count
is greater than one (a single-core host cannot demonstrate jobs scaling).

Exit status: 0 when every shared value is within tolerance and both files
hold the same value names; 1 on any regression, missing value, or non-finite
mismatch; 2 on usage/parse errors or when the two reports come from
different benches (mismatched "name" fields — comparing those is always a
setup bug, not a regression).

History: every compared run is appended to tools/bench_history/<name>.jsonl
(one report document per line, stamped with the comparison's "verdict") so
regressions can be traced across commits, not just against the committed
baseline. Before appending, the current
report's value names are checked against the newest history line: schema
drift (values added or removed) fails the run — a renamed metric silently
resets its history — unless --allow-schema-change acknowledges it.
--history-dir relocates the ledger; --no-history disables it (used by
throwaway comparisons in tests).
"""

import argparse
import json
import math
import os
import sys


def load_manifest_report(text):
    """Builds a bench-report document from RunManifest JSONL, or None when
    the text is not a manifest (no parseable {"type": "manifest"} header)."""
    values, config, name, sha = {}, {}, None, "?"
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(rec, dict) or "type" not in rec:
            return None
        kind = rec["type"]
        if kind == "manifest":
            name = "manifest:" + str(rec.get("command", "?"))
            sha = str(rec.get("build", "?"))
        elif kind == "config":
            config[str(rec.get("key"))] = rec.get("value")
        elif kind == "bench":
            values[str(rec.get("name"))] = rec.get("value")
    if name is None:
        return None
    return {"name": name, "repo_sha": sha, "config": config, "values": values}


def load_report(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(2)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        doc = None
        parse_error = exc
    # A multi-line manifest fails the whole-document parse; a header-only
    # manifest parses but carries "type": "manifest". Either way, fall
    # through to the JSONL reader.
    if doc is None or (isinstance(doc, dict) and doc.get("type") == "manifest"):
        manifest = load_manifest_report(text)
        if manifest is not None:
            return manifest
    if doc is None:
        print(f"error: cannot read {path}: {parse_error}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc.get("values"), dict):
        print(f"error: {path} has no \"values\" object", file=sys.stderr)
        sys.exit(2)
    return doc


def as_float(value):
    # Non-finite doubles are serialized as quoted strings by the C++ writer.
    if isinstance(value, str):
        return float(value.replace("Infinity", "inf"))
    return float(value)


# Host-dependent scaling metrics: comparable only between runs that report
# the same hardware-thread count, and meaningless on a single-core host.
SCALING_PREFIXES = ("wall_s_", "speedup_")


def is_scaling_value(name):
    return name.startswith(SCALING_PREFIXES)


def hw_threads_of(doc):
    """The report's recorded hardware-thread count, or None if absent."""
    config = doc.get("config")
    if not isinstance(config, dict):
        return None
    raw = config.get("hw_threads")
    if raw is None:
        return None
    try:
        return int(str(raw))
    except ValueError:
        return None


def scaling_skip_reason(base, curr):
    """Why scaling values cannot be compared between these reports
    (None when they can)."""
    b, c = hw_threads_of(base), hw_threads_of(curr)
    if b is None or c is None:
        return "hw_threads not recorded in both reports"
    if b != c:
        return f"hw_threads differs (baseline {b}, current {c})"
    if b <= 1:
        return f"host reports {b} hardware thread(s); scaling is unmeasurable"
    return None


def default_history_dir():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "bench_history")


def last_history_entry(path):
    """The newest parseable report on the history ledger, or None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip()]
    except OSError:
        return None
    for line in reversed(lines):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(doc.get("values"), dict):
            return doc
    return None


def update_history(curr, history_dir, allow_schema_change, verdict=None):
    """Appends `curr` to the bench's history ledger, stamped with the
    comparison `verdict` ({"ok": bool, "failures": int}) so the ledger
    records not just what each run measured but how the comparison went.

    Returns an error string on schema drift against the newest history entry
    (nothing is appended then, so the drift stays visible until acknowledged
    with --allow-schema-change), None on success."""
    name = (curr.get("name") or "unnamed").replace(":", "_")
    path = os.path.join(history_dir, f"{name}.jsonl")
    prev = last_history_entry(path)
    if prev is not None:
        prev_names = sorted(prev["values"])
        curr_names = sorted(curr["values"])
        if prev_names != curr_names and not allow_schema_change:
            added = sorted(set(curr_names) - set(prev_names))
            removed = sorted(set(prev_names) - set(curr_names))
            detail = []
            if added:
                detail.append(f"added {added}")
            if removed:
                detail.append(f"removed {removed}")
            return (f"value schema drifted vs history {path}: "
                    f"{'; '.join(detail)} "
                    f"(pass --allow-schema-change if intentional)")
    entry = dict(curr)
    if verdict is not None:
        entry["verdict"] = verdict
    os.makedirs(history_dir, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative tolerance (default 0.05 = 5%%)")
    parser.add_argument("--abs-floor", type=float, default=1e-9,
                        help="below this baseline magnitude, compare absolutely")
    parser.add_argument("--history-dir", default=None,
                        help="bench history ledger directory "
                             "(default: tools/bench_history)")
    parser.add_argument("--no-history", action="store_true",
                        help="do not read or append the history ledger")
    parser.add_argument("--allow-schema-change", action="store_true",
                        help="accept a changed value-name set vs history")
    args = parser.parse_args()

    base = load_report(args.baseline)
    curr = load_report(args.current)

    if base.get("name") != curr.get("name"):
        print(f"error: cannot compare different benches: baseline is "
              f"{base.get('name')!r} ({args.baseline}) but current is "
              f"{curr.get('name')!r} ({args.current}); pass two reports "
              f"from the same bench", file=sys.stderr)
        sys.exit(2)

    base_values = base["values"]
    curr_values = curr["values"]
    failures = 0
    checked = 0
    skipped = 0
    skip_scaling = scaling_skip_reason(base, curr)

    for name in sorted(set(base_values) | set(curr_values)):
        if is_scaling_value(name) and skip_scaling is not None:
            print(f"WARN {name}: skipped ({skip_scaling})")
            skipped += 1
            continue
        if name not in base_values:
            print(f"FAIL {name}: missing from baseline")
            failures += 1
            continue
        if name not in curr_values:
            print(f"FAIL {name}: missing from current run")
            failures += 1
            continue
        b = as_float(base_values[name])
        c = as_float(curr_values[name])
        checked += 1
        if math.isnan(b) and math.isnan(c):
            continue
        if not math.isfinite(b) or not math.isfinite(c):
            if b != c:
                print(f"FAIL {name}: baseline={b} current={c}")
                failures += 1
            continue
        scale = max(abs(b), args.abs_floor)
        delta = abs(c - b)
        if abs(b) < args.abs_floor:
            ok = delta <= args.abs_floor
        else:
            ok = delta / scale <= args.tolerance
        if not ok:
            print(f"FAIL {name}: baseline={b:g} current={c:g} "
                  f"(rel delta {delta / scale:.2%} > {args.tolerance:.2%})")
            failures += 1

    if not args.no_history:
        history_dir = args.history_dir or default_history_dir()
        verdict = {"ok": failures == 0, "failures": failures,
                   "baseline_sha": base.get("repo_sha", "?")}
        error = update_history(curr, history_dir, args.allow_schema_change,
                               verdict)
        if error is not None:
            print(f"FAIL history: {error}")
            failures += 1

    sha_b = base.get("repo_sha", "?")
    sha_c = curr.get("repo_sha", "?")
    skipped_note = f", {skipped} skipped" if skipped else ""
    print(f"compared {checked} values ({sha_b[:12]} -> {sha_c[:12]}): "
          f"{failures} failure(s){skipped_note}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
