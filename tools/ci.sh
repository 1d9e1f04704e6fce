#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite twice —
# once plain, once under AddressSanitizer + UBSan (SWIFTEST_SANITIZE=address) —
# plus a ThreadSanitizer job that drives the chunk-stream fleet runtime
# (SWIFTEST_SANITIZE=thread), the only place the codebase runs real threads.
# The plain suite also runs the smoke test of perfbench/, the repo's one
# benchmark; from bench/ only Fig 20 is gated, compared exactly against
# tools/bench_baseline/BENCH_swiftest.json. --scaling-only runs the Release
# jobs-scaling gate on `swiftest-cli fleet`.
#
# Usage: tools/ci.sh [--plain-only|--asan-only|--tsan-only|--scaling-only]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_suite() {
  local build_dir="$1"
  shift
  echo "=== configure ${build_dir} ($*) ==="
  cmake -B "${REPO_ROOT}/${build_dir}" -S "${REPO_ROOT}" "$@"
  echo "=== build ${build_dir} ==="
  cmake --build "${REPO_ROOT}/${build_dir}" -j "${JOBS}"
  echo "=== ctest ${build_dir} ==="
  ctest --test-dir "${REPO_ROOT}/${build_dir}" --output-on-failure -j "${JOBS}"
  run_traced_cli "${build_dir}"
  run_flag_probe "${build_dir}"
  run_health_gate "${build_dir}"
  run_span_gate "${build_dir}"
  run_executor_gate "${build_dir}"
  run_obs_budget_gate "${build_dir}"
  run_rss_slope_gate "${build_dir}"
  run_profile_gate "${build_dir}"
  run_diff_gate "${build_dir}"
  run_bench_gate "${build_dir}"
}

# One traced end-to-end CLI run per suite: exercises the tracing/metrics
# export path (under ASan too) and validates that the emitted files are
# well-formed JSON. Every gate below writes each run into its own
# --obs-dir; swiftest-cli creates the directory.
run_traced_cli() {
  local build_dir="$1"
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/traced"
  echo "=== traced swiftest-cli run (${build_dir}) ==="
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" run --rate 50 --wire \
    --obs-dir "${out_dir}" --obs trace_chrome,trace_jsonl,metrics
  python3 -m json.tool "${out_dir}/trace.json" > /dev/null
  python3 -m json.tool "${out_dir}/metrics.json" > /dev/null
  python3 - "${out_dir}/trace.jsonl" <<'PYEOF'
import json, sys
count = 0
with open(sys.argv[1]) as stream:
    for lineno, line in enumerate(stream, 1):
        try:
            json.loads(line)
        except ValueError as err:
            sys.exit(f"trace.jsonl line {lineno} is not valid JSON: {err}")
        count += 1
assert count > 0, "trace.jsonl is empty"
print(f"trace.jsonl validated: {count} events")
PYEOF
  echo "trace + metrics JSON validated"
}

# Unknown options are usage errors: a retired per-artifact flag such as
# --health-out must exit 2 instead of being silently ignored.
run_flag_probe() {
  local build_dir="$1"
  echo "=== retired-flag probe (${build_dir}) ==="
  local rc=0
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --days 1 \
    --health-out x > /dev/null || rc=$?
  if [ "${rc}" -ne 2 ]; then
    echo "fleet --health-out exited ${rc}, expected 2 (unknown option)" >&2
    return 1
  fi
  echo "retired flag rejected with exit 2"
}

# One fleet-day per suite gated on the default SLO spec: any objective
# violation makes swiftest-cli exit 3 and fails CI, and the emitted health
# report (JSON + markdown) must be well-formed. A packet fleet-day then
# folds its health — the egress tail and the server_* cells included — at
# --jobs 1 and at --jobs 4 over an odd chunk size, and the two health.json
# files must be byte-identical.
run_health_gate() {
  local build_dir="$1"
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/health"
  echo "=== fleet health/SLO gate (${build_dir}) ==="
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --days 1 \
    --obs-dir "${out_dir}" --obs health,report_md \
    --slo "${REPO_ROOT}/tools/slo_default.json"
  python3 -m json.tool "${out_dir}/health.json" > /dev/null
  grep -q '^# Fleet health report' "${out_dir}/report.md"
  echo "health report validated, SLOs passed"
  local packet=(fleet --backend packet --servers 5 --days 1 --tests-per-day 200
                --seed 3 --obs health)
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" "${packet[@]}" --jobs 1 \
    --obs-dir "${out_dir}/packet-j1"
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" "${packet[@]}" --jobs 4 --chunk 37 \
    --obs-dir "${out_dir}/packet-j4-c37"
  cmp "${out_dir}/packet-j1/health.json" "${out_dir}/packet-j4-c37/health.json"
  echo "packet health identical at --jobs 1 and --jobs 4 --chunk 37"
}

# One traced packet fleet-day per suite, piped through `trace analyze`: the
# attribution JSON must parse, and every trace's critical-path segments must
# sum to its root duration within 1% — the span layer's core invariant.
run_span_gate() {
  local build_dir="$1"
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/spans"
  echo "=== span attribution gate (${build_dir}) ==="
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --backend packet \
    --servers 5 --days 1 --tests-per-day 200 --seed 3 \
    --obs-dir "${out_dir}" --obs spans
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" trace analyze \
    "${out_dir}/spans.json" --json "${out_dir}/attribution.json" \
    --md "${out_dir}/attribution.md"
  python3 - "${out_dir}/attribution.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
traces = report["traces"]
assert traces, "attribution report holds no traces"
bad = [t for t in traces
       if t["duration_s"] > 0
       and abs(t["critical_sum_s"] - t["duration_s"]) > 0.01 * t["duration_s"]]
if bad:
    for t in bad[:5]:
        print(f"trace {t['root_id']}: critical_sum_s={t['critical_sum_s']} "
              f"vs duration_s={t['duration_s']}", file=sys.stderr)
    sys.exit(f"{len(bad)}/{len(traces)} traces violate the 1% critical-sum invariant")
print(f"span attribution validated: {len(traces)} traces within 1%")
PYEOF
}

# Partition-invariance gate (DESIGN.md §15): a 10k-test fleet-day must emit
# byte-identical artifacts — trace, spans, metrics, health — for every
# {--chunk, --jobs} combination, and `obs diff --expect-identical` must agree
# at the manifest level. This is the executor's core contract: every artifact
# is a pure function of (config, seed), independent of how the workload was
# chunked or how many workers replayed it.
run_executor_gate() {
  local build_dir="$1"
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/executor"
  echo "=== partition-invariance (executor) gate (${build_dir}) ==="
  mkdir -p "${out_dir}"
  local chunk jobs tag
  run_one() {
    local tag="$1"; shift
    "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet \
      --days 1 --tests-per-day 10000 --seed 31 --obs-sample 1/16 "$@" \
      --obs-dir "${out_dir}/${tag}" \
      --obs trace_jsonl,spans,metrics,health > /dev/null
  }
  run_one ref  # default chunk (256), jobs 1
  for chunk in 1 64 512; do
    for jobs in 1 4; do
      tag="c${chunk}j${jobs}"
      run_one "${tag}" --chunk "${chunk}" --jobs "${jobs}"
      local artifact
      for artifact in trace.jsonl spans.json metrics.json health.json; do
        cmp "${out_dir}/ref/${artifact}" "${out_dir}/${tag}/${artifact}" \
          || { echo "${artifact} differs: ref vs ${tag}" >&2; return 1; }
      done
      "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" obs diff \
        "${out_dir}/ref/manifest.jsonl" "${out_dir}/${tag}/manifest.jsonl" \
        --expect-identical > "${out_dir}/diff-${tag}.md" \
        || { echo "manifest diff not identical: ref vs ${tag}" >&2; return 1; }
    done
  done
  echo "executor gate passed: artifacts byte-identical across the chunk x jobs matrix"
}

# Bounded-observability gate (DESIGN.md §12): a 50k-test fleet-day under
# --obs-sample 1/16 with a 256 MB budget must emit byte-identical sampled
# trace and span artifacts for every --chunk/--jobs combination, and the
# run's own resource telemetry (obs.peak_rss_mb, from ResourceMonitor) must
# stay under the budget. The RSS assertion is skipped in sanitizer builds —
# shadow memory inflates RSS by design — but byte-identity is always gated.
# The 256 MB budget is never reached on this workload, so two more runs at
# --obs-budget-mb 1 must actually degrade (obs.sample_degradations > 0) and
# still emit byte-identical artifacts across (chunk, jobs).
run_obs_budget_gate() {
  local build_dir="$1"
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/obs-budget"
  echo "=== bounded-observability gate (${build_dir}) ==="
  mkdir -p "${out_dir}"
  local chunk jobs tag
  for chunk in 256 1024; do
    for jobs in 1 4; do
      tag="c${chunk}j${jobs}"
      "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet \
        --days 1 --tests-per-day 50000 --seed 21 \
        --chunk "${chunk}" --jobs "${jobs}" \
        --obs-sample 1/16 --obs-budget-mb 256 --progress \
        --obs-dir "${out_dir}/${tag}" --obs spill,trace_jsonl,spans,health \
        > /dev/null 2> "${out_dir}/progress-${tag}.log"
    done
  done
  for tag in c256j4 c1024j1 c1024j4; do
    cmp "${out_dir}/c256j1/trace.jsonl" "${out_dir}/${tag}/trace.jsonl" \
      || { echo "sampled trace differs: c256j1 vs ${tag}" >&2; return 1; }
    cmp "${out_dir}/c256j1/spans.json" "${out_dir}/${tag}/spans.json" \
      || { echo "sampled spans differ: c256j1 vs ${tag}" >&2; return 1; }
  done
  local check_rss=1
  case "${build_dir}" in *asan*|*tsan*) check_rss=0 ;; esac
  python3 - "${out_dir}/c1024j4/health.json" "${check_rss}" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
meta = report["meta"]
assert meta.get("obs.sample", "").startswith("1/"), "obs.sample missing from meta"
assert meta.get("obs.budget_mb") == "256", "obs.budget_mb missing from meta"
peak = float(meta["obs.peak_rss_mb"])
assert peak > 0.0, "obs.peak_rss_mb not recorded"
if sys.argv[2] == "1" and peak >= 256.0:
    sys.exit(f"fleet-day peak RSS {peak:.1f} MB breaches the 256 MB budget")
print(f"bounded-obs gate passed: artifacts byte-identical, peak RSS {peak:.1f} MB")
PYEOF
  for tag in c256j1 c1024j4; do
    chunk="${tag#c}"; chunk="${chunk%j*}"; jobs="${tag#*j}"
    "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet \
      --days 1 --tests-per-day 50000 --seed 21 \
      --chunk "${chunk}" --jobs "${jobs}" \
      --obs-sample 1/16 --obs-budget-mb 1 --progress \
      --obs-dir "${out_dir}/tight-${tag}" --obs trace_jsonl,spans,health \
      > /dev/null 2> "${out_dir}/progress-tight-${tag}.log"
  done
  local artifact
  for artifact in trace.jsonl spans.json; do
    cmp "${out_dir}/tight-c256j1/${artifact}" "${out_dir}/tight-c1024j4/${artifact}" \
      || { echo "degraded ${artifact} differs: c256j1 vs c1024j4" >&2; return 1; }
  done
  python3 - "${out_dir}/tight-c1024j4/health.json" <<'PYEOF'
import json, sys
meta = json.load(open(sys.argv[1]))["meta"]
assert meta.get("obs.budget_mb") == "1", "obs.budget_mb missing from meta"
degradations = int(meta.get("obs.sample_degradations", "0"))
assert degradations > 0, "a 1 MB budget must degrade the sampling denominator"
print(f"tight-budget gate passed: {degradations} degradations, artifacts byte-identical")
PYEOF
}

# Memory-slope gate (DESIGN.md §15): the chunk stream frees each chunk once
# every health lane has folded it, so an analytic run's peak RSS must not
# grow with the simulated period beyond its O(busy windows) result vector.
# A 7-day and a 28-day run at 1e5 tests/day read obs.peak_rss_mb from their
# health.json meta; the growth must stay at or under 3 MB per simulated day
# (the whole-period pipeline it replaced grew about 17 MB per day). Skipped
# in sanitizer builds, where shadow memory inflates RSS by design.
run_rss_slope_gate() {
  local build_dir="$1"
  case "${build_dir}" in *asan*|*tsan*) return 0 ;; esac
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/rss-slope"
  echo "=== memory-slope gate (${build_dir}) ==="
  local days
  for days in 7 28; do
    "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --backend analytic \
      --days "${days}" --tests-per-day 100000 --progress \
      --obs-dir "${out_dir}/d${days}" --obs health > /dev/null 2> /dev/null
  done
  python3 - "${out_dir}/d7/health.json" "${out_dir}/d28/health.json" <<'PYEOF'
import json, sys
rss7, rss28 = (float(json.load(open(path))["meta"]["obs.peak_rss_mb"])
               for path in sys.argv[1:])
slope = (rss28 - rss7) / 21.0
if slope > 3.0:
    sys.exit(f"peak RSS grows {slope:.2f} MB per simulated day "
             f"(7 d: {rss7:.1f} MB, 28 d: {rss28:.1f} MB) > 3 MB/day")
print(f"memory-slope gate passed: {slope:.2f} MB per simulated day "
      f"(7 d: {rss7:.1f} MB, 28 d: {rss28:.1f} MB)")
PYEOF
}

# Host-time profile attribution gate (DESIGN.md §13): a 10k-test fleet-day
# at --jobs 1 and --jobs 4 with `--obs prof,prof_trace` must emit (a) a PROF
# JSONL file whose every line matches the record schema, (b) a Chrome trace
# that parses as JSON, and (c) calling-thread phase coverage of >= 95% of
# wall-clock — if instrumented phases stop summing to the wall, the Amdahl
# attribution is lying about where the time went. `profile report` must
# render the markdown analysis from the same file.
run_profile_gate() {
  local build_dir="$1"
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/profile"
  echo "=== profile attribution gate (${build_dir}) ==="
  local jobs
  for jobs in 1 4; do
    "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet \
      --days 1 --tests-per-day 10000 --seed 11 --chunk 64 --jobs "${jobs}" \
      --obs-dir "${out_dir}/j${jobs}" --obs prof,prof_trace > /dev/null
    python3 -m json.tool "${out_dir}/j${jobs}/prof_trace.json" > /dev/null
    python3 - "${out_dir}/j${jobs}/prof.jsonl" <<'PYEOF'
import json, sys

REQUIRED = {
    "meta": {"tool", "version", "chunks", "jobs", "timelines", "wall_ns"},
    "timeline": {"tid", "intervals", "dropped"},
    "worker": {"tid", "busy_ns", "idle_ns", "wall_ns", "pulls", "steals", "chunks"},
    "phase": {"tid", "name", "count", "total_ns", "max_ns"},
    "interval": {"tid", "depth", "phase", "t0_ns", "dur_ns", "arg"},
}
meta = None
covered_ns = 0
counts = dict.fromkeys(REQUIRED, 0)
with open(sys.argv[1]) as stream:
    for lineno, line in enumerate(stream, 1):
        rec = json.loads(line)
        kind = rec.get("type")
        if kind not in REQUIRED:
            sys.exit(f"line {lineno}: unknown record type {kind!r}")
        missing = REQUIRED[kind] - rec.keys()
        if missing:
            sys.exit(f"line {lineno}: {kind} record missing {sorted(missing)}")
        counts[kind] += 1
        if kind == "meta":
            meta = rec
        elif kind == "interval" and rec["tid"] == 0 and rec["depth"] == 0:
            covered_ns += rec["dur_ns"]
        elif kind == "worker":
            if rec["busy_ns"] + rec["idle_ns"] != rec["wall_ns"]:
                sys.exit(f"line {lineno}: worker busy+idle != wall")
if meta is None:
    sys.exit("no meta record")
if counts["timeline"] != meta["timelines"]:
    sys.exit(f"meta says {meta['timelines']} timelines, saw {counts['timeline']}")
coverage = covered_ns / meta["wall_ns"] if meta["wall_ns"] else 0.0
if coverage < 0.95:
    sys.exit(f"calling-thread phase coverage {coverage:.1%} < 95% of wall")
print(f"PROF schema ok: {sum(counts.values())} records, "
      f"{counts['timeline']} timelines, coverage {coverage:.1%}")
PYEOF
  done
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" profile report \
    "${out_dir}/j4/prof.jsonl" --md "${out_dir}/prof-j4.md"
  grep -q '^# Host-time profile' "${out_dir}/prof-j4.md"
  grep -q '^## Workers' "${out_dir}/prof-j4.md"
  echo "profile attribution gate passed"
}

# Cross-run manifest diff gate (DESIGN.md §14): a 10k-test fleet-day at
# --jobs 1 and --jobs 4 must produce manifests that `obs diff
# --expect-identical` declares semantically identical (artifacts never depend
# on worker count), every manifest line must match the record schema, and a
# seed-perturbed run must produce a non-empty diff that names the changed
# critical-path stage, with per-stage deltas summing to the observed
# total-time delta within 1%.
run_diff_gate() {
  local build_dir="$1"
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/diff"
  echo "=== manifest diff gate (${build_dir}) ==="
  mkdir -p "${out_dir}"
  local jobs
  for jobs in 1 4; do
    "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet \
      --days 1 --tests-per-day 10000 --seed 21 --chunk 512 --jobs "${jobs}" \
      --obs-sample 1/16 \
      --obs-dir "${out_dir}/j${jobs}" --obs trace_jsonl,metrics,health > /dev/null
  done
  python3 - "${out_dir}/j1/manifest.jsonl" <<'PYEOF'
import json, sys

REQUIRED = {
    "manifest": {"version", "tool", "command", "build"},
    "config": {"key", "value"},
    "artifact": {"name", "path", "bytes", "rows", "hash"},
    "summary": {"layer", "values"},
    "bench": {"name", "value"},
    "slo": {"name", "dimension", "stat", "observed", "status"},
    "host": {"key", "value"},
}
counts = dict.fromkeys(REQUIRED, 0)
with open(sys.argv[1]) as stream:
    for lineno, line in enumerate(stream, 1):
        rec = json.loads(line)
        kind = rec.get("type")
        if kind not in REQUIRED:
            sys.exit(f"line {lineno}: unknown manifest record type {kind!r}")
        missing = REQUIRED[kind] - rec.keys()
        if missing:
            sys.exit(f"line {lineno}: {kind} record missing {sorted(missing)}")
        if kind == "artifact" and not rec["hash"].startswith("fnv1a64:"):
            sys.exit(f"line {lineno}: artifact hash {rec['hash']!r} "
                     f"lacks fnv1a64: prefix")
        if kind == "summary" and not isinstance(rec["values"], dict):
            sys.exit(f"line {lineno}: summary values is not an object")
        counts[kind] += 1
if counts["manifest"] != 1:
    sys.exit(f"expected exactly one manifest header, saw {counts['manifest']}")
for kind in ("config", "artifact", "summary", "bench", "host"):
    if counts[kind] == 0:
        sys.exit(f"manifest holds no {kind!r} record")
print(f"manifest schema ok: {sum(counts.values())} lines "
      f"({counts['artifact']} artifacts, {counts['summary']} summaries)")
PYEOF
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" obs diff \
    "${out_dir}/j1/manifest.jsonl" "${out_dir}/j4/manifest.jsonl" \
    --expect-identical > "${out_dir}/diff-jobs.md" \
    || { echo "jobs-varied runs are not semantically identical" >&2; return 1; }
  grep -q 'diff: identical' "${out_dir}/diff-jobs.md" \
    || { echo "diff verdict line missing" >&2; return 1; }
  local seed
  for seed in 3 4; do
    "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --backend packet \
      --servers 5 --days 1 --tests-per-day 200 --seed "${seed}" \
      --obs-dir "${out_dir}/seed${seed}" --obs spans,health > /dev/null
  done
  local rc=0
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" obs diff \
    "${out_dir}/seed3/manifest.jsonl" "${out_dir}/seed4/manifest.jsonl" \
    --json "${out_dir}/diff-seed.json" > "${out_dir}/diff-seed.out" || rc=$?
  if [ "${rc}" -ne 4 ]; then
    echo "seed-perturbed diff exited ${rc}, expected 4 (regression)" >&2
    return 1
  fi
  grep -q 'largest stage delta: ' "${out_dir}/diff-seed.out" \
    || { echo "seed-perturbed diff names no changed stage" >&2; return 1; }
  python3 - "${out_dir}/diff-seed.json" <<'PYEOF'
import json, sys
report = json.load(open(sys.argv[1]))
assert report["diff"]["regressions"] > 0, "perturbed diff reports no regression"
sa = report["stage_attribution"]
assert sa.get("top_stage"), "stage attribution names no top stage"
total = sa["total_delta_s"]
err = abs(sa["stage_delta_sum_s"] - total)
if err > 0.01 * max(abs(total), 1e-3):
    sys.exit(f"stage deltas sum to {sa['stage_delta_sum_s']} but observed "
             f"total-time delta is {total} (error {err})")
print(f"perturbed diff ok: top stage {sa['top_stage']}, "
      f"stage-delta sum within 1% of total delta {total:.3f}s")
PYEOF
  echo "manifest diff gate passed"
}

# Fig 20 regression gate: Swiftest's test-duration values are pure
# sim-time, so the report's `values` must equal the committed baseline
# exactly, on any host and in every build.
run_bench_gate() {
  local build_dir="$1"
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke"
  echo "=== fig20 baseline gate (${build_dir}) ==="
  mkdir -p "${out_dir}"
  "${REPO_ROOT}/${build_dir}/bench/bench_fig20_swiftest_time" \
    --json "${out_dir}/BENCH_swiftest.json" > /dev/null
  python3 - "${REPO_ROOT}/tools/bench_baseline/BENCH_swiftest.json" \
    "${out_dir}/BENCH_swiftest.json" <<'PYEOF'
import json, sys
base, curr = (json.load(open(path))["values"] for path in sys.argv[1:])
if curr != base:
    for name in sorted(base.keys() | curr.keys()):
        if base.get(name) != curr.get(name):
            print(f"{name}: baseline {base.get(name)!r}, now {curr.get(name)!r}",
                  file=sys.stderr)
    sys.exit("fig20 values differ from tools/bench_baseline/BENCH_swiftest.json")
print(f"fig20 gate passed: {len(base)} values equal the baseline exactly")
PYEOF
}

# Release-build jobs-scaling gate: the chunk stream exists to make
# chunk workers scale, so prove it on a packet fleet-day at --chunk 32, run
# at --jobs 1 and at a higher job count. Every run must write byte-identical
# health.json. What is assertable about the wall-clock depends on the host:
#   - >= 8 hardware threads: one run per side at --jobs 8, and a >= 3x
#     wall-clock speedup.
#   - 2..7 hardware threads: --jobs <hw>, best of 3 runs per side (a cold
#     first run can sit far below the steady state), and a speedup >= hw/2.
#   - exactly 1 hardware thread: one run per side at --jobs 8. No speedup is
#     possible, but the pool must not cost anything either — jobs-8
#     wall-clock within 5% of jobs-1.
# Every run profiles itself (--obs prof); the high-jobs profile report's
# "## Workers" section is the per-worker steal/imbalance table.
run_scaling_gate() {
  local build_dir="build-release"
  local hw
  hw="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
  local hi=8 reps=1
  if [ "${hw}" -gt 1 ] && [ "${hw}" -lt 8 ]; then
    hi="${hw}"
    reps=3
  fi
  echo "=== configure ${build_dir} (Release) ==="
  cmake -B "${REPO_ROOT}/${build_dir}" -S "${REPO_ROOT}" \
    -DCMAKE_BUILD_TYPE=Release
  echo "=== build ${build_dir} (swiftest-cli) ==="
  cmake --build "${REPO_ROOT}/${build_dir}" -j "${JOBS}" --target swiftest-cli
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke/scaling"
  echo "=== jobs-scaling gate (--chunk 32, jobs 1 vs ${hi}, best of ${reps}," \
    "Release, ${hw} hw threads) ==="
  mkdir -p "${out_dir}"
  rm -f "${out_dir}"/wall-j*.txt
  # bash's `time` keyword prints the elapsed seconds (TIMEFORMAT=%R) to the
  # group's stderr, which goes to wall-j*-r*.txt; the CLI's own stderr goes
  # to fd 3, a copy of the terminal's.
  local rep jobs TIMEFORMAT=%R
  for rep in $(seq 1 "${reps}"); do
    for jobs in 1 "${hi}"; do
      { time "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --backend packet \
          --servers 8 --days 1 --tests-per-day 300 --seed 5 --chunk 32 \
          --jobs "${jobs}" --obs-dir "${out_dir}/j${jobs}" --obs health,prof \
          > /dev/null 2>&3 ; } 3>&2 2> "${out_dir}/wall-j${jobs}-r${rep}.txt"
    done
    cmp "${out_dir}/j1/health.json" "${out_dir}/j${hi}/health.json" \
      || { echo "jobs-scaling gate: health.json differs between jobs 1 and ${hi}" >&2; return 1; }
  done
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" profile report \
    "${out_dir}/j${hi}/prof.jsonl" --md "${out_dir}/prof-j${hi}.md"
  awk '/^## /{show = ($0 == "## Workers")} show' "${out_dir}/prof-j${hi}.md"
  python3 - "${out_dir}" "${hw}" "${hi}" <<'PYEOF'
import glob, sys
out_dir, hw, hi = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
def best(jobs):
    return min(float(open(path).read())
               for path in glob.glob(f"{out_dir}/wall-j{jobs}-r*.txt"))
wall1, wallhi = best(1), best(hi)
speedup = wall1 / wallhi
if hw >= 8:
    if speedup < 3.0:
        sys.exit(f"jobs-scaling gate: jobs-8 speedup {speedup:.2f} < 3.0 "
                 f"({wallhi:.3f}s vs {wall1:.3f}s)")
    print(f"jobs-scaling gate passed: jobs-8 speedup {speedup:.2f}, "
          f"health identical")
elif hw > 1:
    if speedup < hw / 2:
        sys.exit(f"jobs-scaling gate: jobs-{hi} best-of-3 speedup "
                 f"{speedup:.2f} < {hw / 2:.1f} ({wallhi:.3f}s vs {wall1:.3f}s)")
    print(f"jobs-scaling gate passed ({hw} hw threads): jobs-{hi} best-of-3 "
          f"speedup {speedup:.2f} >= {hw / 2:.1f}, health identical")
else:  # hw == 1: the pool must be near-free when it cannot help
    if wallhi > 1.05 * wall1:
        sys.exit(f"jobs-scaling gate: jobs-8 overhead on 1 hw thread is "
                 f"{100.0 * (wallhi / wall1 - 1.0):.1f}% > 5% "
                 f"({wallhi:.3f}s vs {wall1:.3f}s)")
    print(f"jobs-scaling gate passed (1 hw thread): jobs-8 overhead "
          f"{100.0 * (wallhi / wall1 - 1.0):+.1f}% <= 5%, health identical")
PYEOF
}

# Benchmark smoke test: perfbench compiles src/ in its own build tree
# (.bench_build/) against the public deploy/obs APIs, so a src/ change that
# breaks the benchmark build or its output checks fails CI here, not later
# in the benchmark pipeline. Runs every workload at the tiny size, once.
run_perfbench_smoke() {
  echo "=== perfbench smoke test ==="
  (cd "${REPO_ROOT}" && python3 perfbench/smoke_test.py)
}

# ThreadSanitizer job: build the CLI under -fsanitize=thread and run a
# chunked packet fleet-day on the real chunk stream (--chunk 64 --jobs 4).
# Chunk workers share nothing but their ring slots, handed over under the
# stream's mutex, and the in-order commit, so a TSan-clean run certifies the
# substrate's isolation contract; any cross-worker data race fails CI here.
# Several gtest suites ride the same build: RunStreamHostprof drives the
# stream with a live profiler (the reserve-before-spawn / read-after-join
# contract, DESIGN.md §13), RunStream drives it under randomized task
# durations and throwing stages, and ChunkedFleet runs whole fleets on it.
# HealthFold and an analytic fleet-day at --jobs 4 (its health JSON cmp'd
# against --jobs 1) drive the streaming health fold on the stream, whose
# lanes feed disjoint HealthMonitor cells while the in-order commit creates
# new ones. The model fits share the same pool through run_tasks: the
# many-sets fit_gmm_bic must equal serial fits bit for bit, and the pinned
# fits (one BIC pick, one registry refresh) must not move under TSan.
run_tsan_fleet() {
  local build_dir="build-tsan"
  echo "=== configure ${build_dir} (-DSWIFTEST_SANITIZE=thread) ==="
  cmake -B "${REPO_ROOT}/${build_dir}" -S "${REPO_ROOT}" -DSWIFTEST_SANITIZE=thread
  echo "=== build ${build_dir} (swiftest-cli, test_deploy, test_obs, test_stats, test_swiftest) ==="
  cmake --build "${REPO_ROOT}/${build_dir}" -j "${JOBS}" \
    --target swiftest-cli --target test_deploy --target test_obs \
    --target test_stats --target test_swiftest
  echo "=== TSan chunk stream + its profiler + health fold + chunked fleets (live contention) ==="
  "${REPO_ROOT}/${build_dir}/tests/test_deploy" \
    --gtest_filter='RunStreamHostprof.*:RunStream.*:HealthFold.*:ChunkedFleet.*'
  echo "=== TSan P2 bit-exactness pins (integer-position P2 vs reference, observe_all) ==="
  "${REPO_ROOT}/${build_dir}/tests/test_obs" \
    --gtest_filter='P2Quantile.BitExactAgainstDoublePositionReference:StreamingAggregate.ObserveAllMatchesRepeatedObserve'
  echo "=== TSan parallel model fits (many-sets BIC fit vs serial, pinned fits) ==="
  "${REPO_ROOT}/${build_dir}/tests/test_stats" \
    --gtest_filter='FitGmmBic.ManySetsMatchSerialFits:FitGmmBic.BadKRangeThrows:FitGmmBic.BimodalFitIsBitExact'
  "${REPO_ROOT}/${build_dir}/tests/test_swiftest" \
    --gtest_filter='ModelRegistry.FitFromCampaignIsBitExact'
  echo "=== TSan analytic fleet-day: parallel health fold (--jobs 4 vs 1) ==="
  local out_dir="${REPO_ROOT}/${build_dir}/obs-smoke"
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --days 1 \
    --tests-per-day 20000 --seed 3 --jobs 4 \
    --obs-dir "${out_dir}/health-j4" --obs health
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --days 1 \
    --tests-per-day 20000 --seed 3 --jobs 1 \
    --obs-dir "${out_dir}/health-j1" --obs health
  cmp "${out_dir}/health-j4/health.json" "${out_dir}/health-j1/health.json"
  # An odd chunk size: lanes drain their blocks over a partition whose logs
  # never line up with a block edge.
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --days 1 \
    --tests-per-day 20000 --seed 3 --jobs 4 --chunk 37 \
    --obs-dir "${out_dir}/health-j4-c37" --obs health
  cmp "${out_dir}/health-j4-c37/health.json" "${out_dir}/health-j1/health.json"
  echo "=== TSan chunked fleet-day (--chunk 64 --jobs 4, profiled) ==="
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --backend packet \
    --servers 5 --days 1 --tests-per-day 200 --seed 3 --chunk 64 --jobs 4
  "${REPO_ROOT}/${build_dir}/tools/swiftest-cli" fleet --backend packet \
    --servers 5 --days 1 --tests-per-day 200 --seed 3 --chunk 64 --jobs 4 \
    --obs-dir "${out_dir}/prof" --obs prof
  echo "TSan chunked fleet-day clean"
}

mode="${1:-all}"
case "${mode}" in
  --plain-only)
    run_suite build
    run_perfbench_smoke
    ;;
  --asan-only) run_suite build-asan -DSWIFTEST_SANITIZE=address ;;
  --tsan-only) run_tsan_fleet ;;
  --scaling-only) run_scaling_gate ;;
  all)
    run_suite build
    run_perfbench_smoke
    run_suite build-asan -DSWIFTEST_SANITIZE=address
    run_tsan_fleet
    run_scaling_gate
    ;;
  *)
    echo "usage: tools/ci.sh [--plain-only|--asan-only|--tsan-only|--scaling-only]" >&2
    exit 2
    ;;
esac

echo "=== tier-1 verification passed ==="
