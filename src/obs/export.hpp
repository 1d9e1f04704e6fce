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

/// The one trace renderer: writes events one at a time as compact JSONL and/or
/// a Chrome trace_event document (loadable in chrome://tracing and Perfetto;
/// instants as ph "i" markers, counters as ph "C" tracks) — either stream
/// may be null — and counts them per category.
class TraceWriter {
 public:
  /// Opens the Chrome document, if any.
  TraceWriter(std::ostream* jsonl, std::ostream* chrome);

  void write(const TraceEvent& event);
  /// Closes the Chrome document.
  void finish();

  [[nodiscard]] std::uint64_t events() const noexcept { return events_; }

 private:
  friend std::vector<std::pair<std::string, double>> summarize_for_manifest(
      const TraceWriter& writer, std::uint64_t dropped);

  std::ostream* jsonl_;
  std::ostream* chrome_;
  std::string line_;
  std::uint64_t events_ = 0;
  std::uint64_t per_category_[5] = {};  // by Category bit
};

/// Chrome trace_event JSON of the retained events, oldest first.
void write_chrome_trace(const Tracer& tracer, std::ostream& out);

/// Compact JSONL: one JSON object per retained event per line, oldest first.
void write_trace_jsonl(const Tracer& tracer, std::ostream& out);

/// Metrics snapshot as one JSON document:
/// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out);

// ------------------------------------------------------ manifest interface
//
// Every obs layer exposes summarize_for_manifest(): a flat, name-ordered
// (key, value) list the RunManifest embeds so `obs diff` can compare runs
// without re-reading every artifact, plus a loader for the artifact the
// layer writes so the differ can go deeper when the file is on disk.

/// Trace summary: the events a writer rendered, `dropped` (lost before
/// they reached it), and per-category counts ("cat.protocol", ...).
/// Deterministic order.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const TraceWriter& writer, std::uint64_t dropped);

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
