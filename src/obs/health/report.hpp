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
#include <map>
#include <optional>
#include <string>
#include <string_view>
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

/// A health JSON artifact read back from disk: what `obs diff` works on when
/// comparing per-dimension quantile drift between two runs.
struct HealthArtifact {
  ReportMeta meta;  // key-ordered as parsed
  std::uint64_t tests = 0;
  /// metric -> dimension -> stats, same shape as HealthSnapshot::metrics.
  std::map<std::string, std::map<std::string, AggregateStats>> metrics;
};

/// Parses a health.json document. Returns nullopt (with a reason in
/// `error`) on malformed JSON or a document without a "metrics" object.
[[nodiscard]] std::optional<HealthArtifact> parse_health_json(
    std::string_view text, std::string* error = nullptr);

/// Loads and parses a health artifact from disk.
[[nodiscard]] std::optional<HealthArtifact> load_health_file(
    const std::string& path, std::string* error = nullptr);

/// Manifest summary: tests plus the "all"-cell count/mean/p99 of every
/// metric ("duration_s.count", "duration_s.p99", ...). Name-ordered.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const HealthSnapshot& snapshot);

}  // namespace swiftest::obs::health
