// Semantic cross-run diffing: two RunManifests in, one explained verdict out.
//
// `swiftest-cli obs diff A B` loads two manifests (obs/manifest/manifest.hpp)
// and produces a DiffReport that replaces "the bytes differ" with *what*
// differs and by how much. Each writer records its artifact's content in
// the manifest summary when it writes it, so the summaries are the one
// record compared:
//
//   * config drift — which resolved settings differ (attribution context,
//     never a regression by itself);
//   * artifact identity — content hash / rows / bytes per logical artifact
//     name, path-independent;
//   * layer summaries — trace counts per category and per event name,
//     metrics counters/gauges/histogram aggregates, span counts,
//     count/mean/p50/p95/p99 per health (metric, dimension) cell, and the
//     host profile (always informational: host time never gates) — under
//     per-key tolerance rules (counts are exact, statistics tolerant);
//   * span stage-delta attribution — the one section that reads artifacts:
//     both runs' span files through the critical-path analyzer
//     (obs/span/critical_path.hpp); per-stage critical-time deltas that sum
//     to the observed total-time delta, naming the stage that moved.
//
// Every compared entry is classified by the taxonomy in DESIGN.md §14:
//   kIdentical        exactly equal;
//   kWithinTolerance  differs, inside the entry's tolerance rule;
//   kRegressed        differs beyond tolerance (in either direction — the
//                     diff flags change, the reader judges its sign);
//   kInfo             reported for attribution, never gated (host time,
//                     config drift, paths).
//
// Gating: `regressions` counts gated kRegressed entries; with
// expect_identical every gated non-identical entry counts. The CLI maps a
// non-zero count to exit code 4.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/manifest/manifest.hpp"

namespace swiftest::obs::diff {

enum class DiffStatus { kIdentical, kWithinTolerance, kRegressed, kInfo };

[[nodiscard]] const char* to_string(DiffStatus status);

/// One compared fact. Numeric entries carry a/b/delta/rel; text entries
/// (config values, hashes, SLO statuses) carry a_text/b_text.
struct DiffEntry {
  std::string section;  // "config", "artifact", "summary.health", ...
  std::string key;
  bool numeric = true;
  double a = 0.0;
  double b = 0.0;
  double delta = 0.0;  // b - a
  double rel = 0.0;    // |delta| / max(|a|, |b|), 0 when both are 0
  std::string a_text;
  std::string b_text;
  DiffStatus status = DiffStatus::kIdentical;
  std::string note;
};

/// Per-section tally. `checked` counts every comparison made, including the
/// identical ones that produce no DiffEntry.
struct SectionCounts {
  std::size_t checked = 0;
  std::size_t identical = 0;
  std::size_t within_tolerance = 0;
  std::size_t regressed = 0;
  std::size_t info = 0;
};

/// One stage of the critical-path delta attribution, |delta| descending.
struct StageDelta {
  std::string name;
  double critical_a_s = 0.0;
  double critical_b_s = 0.0;
  double delta_s = 0.0;  // b - a
  double share = 0.0;    // delta_s / total_delta_s (0 when total is 0)
};

struct DiffOptions {
  /// Gate on any semantic difference, tolerant or not (the CI jobs-invariance
  /// gate). Host-time and config sections stay informational.
  bool expect_identical = false;
  /// Relative tolerance for statistical values (means, quantiles, bench).
  /// Counts are always exact.
  double rel_tolerance = 0.05;
  /// Read both runs' span artifacts for the stage-delta attribution. When
  /// false — or when a file is missing — the report has no attribution
  /// (with a note for a missing file); every other section compares the
  /// manifests alone.
  bool load_artifacts = true;
};

struct DiffReport {
  std::string path_a;
  std::string path_b;
  std::string command_a;
  std::string command_b;
  std::string build_a;
  std::string build_b;
  /// Every non-identical comparison plus informational context, in section
  /// order. Identical entries are tallied in `sections`, not listed.
  std::vector<DiffEntry> entries;
  std::map<std::string, SectionCounts> sections;

  /// Critical-path stage-delta attribution (present when both runs carry a
  /// loadable spans artifact).
  bool has_stage_attribution = false;
  double total_time_a_s = 0.0;      // sum of root-span durations, run A
  double total_time_b_s = 0.0;      // sum of root-span durations, run B
  double total_delta_s = 0.0;       // b - a
  double stage_delta_sum_s = 0.0;   // sum of per-stage critical deltas
  std::vector<StageDelta> stages;   // |delta| descending
  std::string top_stage;            // largest |delta| stage, "" when none

  std::size_t regressions = 0;  // gated failures (see header comment)
  bool identical = false;       // no gated non-identical entries at all
};

/// Compares two runs. `path_a`/`path_b` label the report; span artifacts
/// are resolved from the paths recorded inside each manifest.
[[nodiscard]] DiffReport diff_runs(const manifest::RunManifest& a,
                                   const manifest::RunManifest& b,
                                   const DiffOptions& options,
                                   const std::string& path_a = "A",
                                   const std::string& path_b = "B");

/// Deterministic JSON rendering of the full report.
void write_diff_json(const DiffReport& report, std::ostream& out);

/// Markdown rendering: verdict, section table, top entries per section, and
/// the stage-delta attribution table.
void write_diff_markdown(const DiffReport& report, std::ostream& out);

}  // namespace swiftest::obs::diff
