// Exporters for the tracer and metrics registry.
//
// All output is deterministic: event order is simulation order, doubles are
// rendered with std::to_chars (shortest round-trip form), and metric maps
// are name-ordered — so two runs with the same seed produce byte-identical
// files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace swiftest::obs {

/// Chrome trace_event JSON ({"traceEvents": [...]}), loadable in
/// chrome://tracing and Perfetto. Instant events render as markers
/// (ph "i"); counter events render as value tracks (ph "C").
void write_chrome_trace(const Tracer& tracer, std::ostream& out);

/// Compact JSONL: one JSON object per event per line, oldest first.
void write_trace_jsonl(const Tracer& tracer, std::ostream& out);

/// Appends one event's JSONL line (newline included) — the exact line format
/// write_trace_jsonl emits, shared with the spill writer so spilled segments
/// concatenate seamlessly with the exported remainder.
void append_trace_jsonl_line(std::string& out, const TraceEvent& event);

/// Metrics snapshot as one JSON document:
/// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out);

// ------------------------------------------------------ manifest interface
//
// Every obs layer exposes summarize_for_manifest(): a flat, name-ordered
// (key, value) list the RunManifest embeds so `obs diff` can compare runs
// without re-reading every artifact, plus a loader for the artifact the
// layer writes so the differ can go deeper when the file is on disk.

/// Trace summary: retained/dropped/spilled totals plus per-category retained
/// counts ("cat.protocol", ...). Deterministic order.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const Tracer& tracer);

/// Metrics summary: counters as "counter.<name>", gauges as "gauge.<name>",
/// histograms as "hist.<name>.count" / "hist.<name>.sum". Name-ordered.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const MetricsSnapshot& snapshot);

/// What the trace-jsonl diff loader extracts from a trace.jsonl artifact:
/// event totals plus per-category and per-event-name counts.
struct TraceArtifactSummary {
  std::uint64_t events = 0;
  std::map<std::string, std::uint64_t> per_category;
  std::map<std::string, std::uint64_t> per_name;
};

/// Parses a trace.jsonl artifact into count form. Returns nullopt (with a
/// line-numbered reason in `error`) on a malformed line.
[[nodiscard]] std::optional<TraceArtifactSummary> parse_trace_jsonl(
    std::string_view text, std::string* error = nullptr);

/// File convenience wrapper over parse_trace_jsonl.
[[nodiscard]] std::optional<TraceArtifactSummary> load_trace_jsonl_file(
    const std::string& path, std::string* error = nullptr);

}  // namespace swiftest::obs
