// Critical-path latency attribution over span trees.
//
// The analyzer reconstructs the span forest of a run (one tree per
// bandwidth test), then answers the question the raw trace cannot: of the
// 1.2 s a Swiftest test took, how much belongs to server selection, to each
// probing round, to the convergence window, to finalization?
//
// Two attributions are computed per tree:
//
//  - Stage self/total time. total = span duration; self = duration minus
//    the union of the children's intervals. Aggregated by span name.
//  - The critical path: walking backward from the root's end, the frontier
//    descends into whichever child was active at the frontier and charges
//    any uncovered gap to the parent. The resulting segments partition the
//    root interval exactly, so critical-path self-times sum to the measured
//    test duration by construction — the invariant CI checks to 1%.
//
// Spans carrying attribute aux != 0 (server sessions, which run concurrently
// with the client's rounds) count toward stage totals but are never descended
// into by the critical-path walk: the client's sequential stages own the
// attribution, and the concurrent participants annotate it.
//
// Robustness: open spans are clipped to their tree's maximum timestamp,
// spans whose parent is missing (dropped by a full store) become roots of
// their own trees, and parent cycles are broken at the first repeat — a
// damaged trace degrades to a coarser report, never a crash.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/span/json.hpp"

namespace swiftest::obs::span {

/// Per-stage (span-name) aggregate within one tree or across the run.
struct StageStat {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;     // sum of span durations
  double self_s = 0.0;      // durations minus children cover
  double critical_s = 0.0;  // time charged to this stage on critical paths
};

/// One segment of a tree's critical path, in time order.
struct CriticalSegment {
  std::uint64_t span_id = 0;
  std::string name;
  core::SimTime start = 0;
  core::SimTime end = 0;

  [[nodiscard]] double seconds() const;
};

/// Attribution for one span tree (one test).
struct TraceAttribution {
  std::uint64_t root_id = 0;
  std::uint64_t trace_id = 0;
  std::string root_name;
  double duration_s = 0.0;      // root span duration
  double critical_sum_s = 0.0;  // sum over critical_path (== duration_s)
  std::vector<CriticalSegment> critical_path;
  std::vector<StageStat> stages;  // name-ordered, this tree only
};

/// Whole-run attribution: one entry per tree plus run-level aggregates.
struct AttributionReport {
  std::vector<TraceAttribution> traces;  // root-id order
  std::vector<StageStat> stages;         // name-ordered, across all trees
  std::size_t span_count = 0;
  std::size_t open_spans = 0;    // clipped to their tree's max timestamp
  std::size_t orphan_spans = 0;  // parent missing; promoted to roots
};

/// Builds the attribution report for a span set (from a live store via
/// to_span_data(), or from a parsed span JSON file).
[[nodiscard]] AttributionReport analyze_spans(const std::vector<SpanData>& spans);

/// Deterministic JSON rendering of a report (obs/json numbers).
void write_attribution_json(const AttributionReport& report, std::ostream& out);

/// Markdown rendering: per-stage table plus the critical path of each tree.
/// `max_traces` bounds the per-tree sections (0 = all).
void write_attribution_markdown(const AttributionReport& report, std::ostream& out,
                                std::size_t max_traces = 10);

}  // namespace swiftest::obs::span
