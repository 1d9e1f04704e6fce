// Deterministic run reports over a health snapshot.
//
// Same discipline as obs/export: map iteration order and std::to_chars
// rendering make two same-seed runs produce byte-identical files. The JSON
// report is the machine-readable artifact CI diffs and gates on; the
// markdown report renders the paper's §5 headline table (duration, data
// usage, deviation, egress utilization — p50/p95/p99 per dimension) for
// humans. Wall-clock self-profiling never appears here: it is host-time and
// would break byte-stability (see obs/hostprof/hostprof.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/health/monitor.hpp"
#include "obs/health/slo.hpp"

namespace swiftest::obs::health {

/// Free-form run identity rendered into the report header ("command",
/// "seed", "backend", ...). Order is preserved as given.
using ReportMeta = std::vector<std::pair<std::string, std::string>>;

/// {"meta": {...}, "tests": N, "test_rate": {...},
///  "metrics": {metric: {dimension: {count,mean,...,p50,p95,p99}}},
///  "slo": {"evaluated": N, "violations": N, "results": [...]}}.
/// `evaluation` may be null (no "slo" section).
void write_health_json(const HealthSnapshot& snapshot, const ReportMeta& meta,
                       const SloEvaluation* evaluation, std::ostream& out);

/// Human-readable markdown: header, headline per-dimension table for the
/// four §5 signals, and an SLO section when an evaluation is supplied.
void write_health_markdown(const HealthSnapshot& snapshot, const ReportMeta& meta,
                           const SloEvaluation* evaluation, std::ostream& out);

[[nodiscard]] const char* to_string(SloStatus status) noexcept;

/// Manifest summary: `tests` plus count/mean/p50/p95/p99 of every
/// (metric, dimension) cell ("duration_s[all].count",
/// "duration_s[tech:5g].p95", ...). Metric-, then dimension-ordered.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const HealthSnapshot& snapshot);

}  // namespace swiftest::obs::health
