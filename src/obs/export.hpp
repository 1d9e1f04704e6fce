// Exporters for the tracer and metrics registry.
//
// All output is deterministic: event order is simulation order, doubles are
// rendered with std::to_chars (shortest round-trip form), and metric maps
// are name-ordered — so two runs with the same seed produce byte-identical
// files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace swiftest::obs {

/// The one trace renderer: writes events one at a time as compact JSONL and/or
/// a Chrome trace_event document (loadable in chrome://tracing and Perfetto;
/// instants as ph "i" markers, counters as ph "C" tracks) — either stream
/// may be null — and counts them per category and per event name.
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
  /// Events per name literal, in first-seen order. Counting by address
  /// keeps the per-event cost a pointer compare; the summary merges the
  /// addresses that hold equal text.
  std::vector<std::pair<const char*, std::uint64_t>> per_name_;
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
// (key, value) list the RunManifest embeds. It is the one record of what
// the layer's artifact holds: `obs diff` compares these lists, and only
// its stage attribution reads an artifact back (the span tree).

/// Trace summary: the events a writer rendered, `dropped` (lost before
/// they reached it), per-category counts ("cat.protocol", ...) and
/// per-event-name counts ("event.link.drop", ...). Deterministic order.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const TraceWriter& writer, std::uint64_t dropped);

/// Metrics summary: counters as "counter.<name>", gauges as "gauge.<name>",
/// histograms as "hist.<name>.count" / "hist.<name>.sum". Name-ordered.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const MetricsSnapshot& snapshot);

}  // namespace swiftest::obs
