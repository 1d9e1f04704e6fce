#include "obs/diff/diff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <ostream>
#include <set>
#include <string_view>
#include <utility>

#include "obs/json.hpp"
#include "obs/span/critical_path.hpp"
#include "obs/span/json.hpp"

namespace swiftest::obs::diff {
namespace {

/// Sections that never gate: they attribute a difference, they are not one.
bool is_info_section(std::string_view section) {
  return section == "config" || section == "run" || section == "host" ||
         section == "summary.hostprof";
}

/// Host-time artifacts: content is wall-clock-dependent by design, so their
/// hashes are reported but never gated.
bool is_info_artifact(std::string_view name) {
  return name.rfind("prof", 0) == 0 || name == "progress";
}

/// Integer-semantics summary keys compare exactly; everything else (means,
/// quantiles, fractions) gets the relative tolerance.
bool is_exact_key(std::string_view key) {
  static constexpr std::string_view kExact[] = {
      "events", "dropped", "spans", "open", "tests",
      "count",  "bytes",   "rows",  "ok",   "violations"};
  for (const std::string_view exact : kExact) {
    if (key == exact) return true;
  }
  for (const std::string_view prefix : {"cat.", "counter.", "event."}) {
    if (key.rfind(prefix, 0) == 0) return true;
  }
  if (key.size() >= 6 && key.substr(key.size() - 6) == ".count") return true;
  return false;
}

std::map<std::string, double> to_value_map(const manifest::ValueList& list) {
  std::map<std::string, double> out;
  for (const auto& [key, value] : list) out[key] = value;
  return out;
}

/// Collects per-stage critical seconds and the summed root durations from an
/// attribution report.
struct StageTotals {
  std::map<std::string, double> critical_s;
  double total_s = 0.0;
};

StageTotals stage_totals(const span::AttributionReport& report) {
  StageTotals totals;
  for (const span::StageStat& stage : report.stages) {
    totals.critical_s[stage.name] += stage.critical_s;
  }
  for (const span::TraceAttribution& trace : report.traces) {
    totals.total_s += trace.duration_s;
  }
  return totals;
}

class Differ {
 public:
  Differ(const manifest::RunManifest& a, const manifest::RunManifest& b,
         const DiffOptions& options)
      : a_(a), b_(b), options_(options) {}

  DiffReport run(const std::string& path_a, const std::string& path_b) {
    report_.path_a = path_a;
    report_.path_b = path_b;
    report_.command_a = a_.command;
    report_.command_b = b_.command;
    report_.build_a = a_.build;
    report_.build_b = b_.build;

    diff_run_identity();
    diff_config();
    diff_artifacts();
    diff_summaries();
    diff_stage_attribution();
    diff_slos();
    diff_bench();
    diff_host();

    // Informational entries (host time, config drift) never gate.
    report_.identical =
        std::none_of(report_.entries.begin(), report_.entries.end(),
                     [](const DiffEntry& e) { return e.status != DiffStatus::kInfo; });
    return std::move(report_);
  }

 private:
  // -- recording -----------------------------------------------------------

  SectionCounts& counts(const std::string& section) {
    return report_.sections[section];
  }

  void note_entry(const std::string& section, std::string key, std::string note) {
    DiffEntry entry;
    entry.section = section;
    entry.key = std::move(key);
    entry.numeric = false;
    entry.status = DiffStatus::kInfo;
    entry.note = std::move(note);
    counts(section).info += 1;
    report_.entries.push_back(std::move(entry));
  }

  void compare_numeric(const std::string& section, const std::string& key,
                       double a, double b, bool exact, std::string note = "") {
    SectionCounts& tally = counts(section);
    tally.checked += 1;
    if (a == b) {
      tally.identical += 1;
      return;
    }
    const bool info = is_info_section(section);

    DiffEntry entry;
    entry.section = section;
    entry.key = key;
    entry.a = a;
    entry.b = b;
    entry.delta = b - a;
    entry.rel = std::abs(entry.delta) / std::max(std::abs(a), std::abs(b));
    entry.note = std::move(note);
    if (info) {
      entry.status = DiffStatus::kInfo;
      tally.info += 1;
    } else if (!exact && !options_.expect_identical &&
               entry.rel <= options_.rel_tolerance) {
      entry.status = DiffStatus::kWithinTolerance;
      tally.within_tolerance += 1;
    } else {
      entry.status = DiffStatus::kRegressed;
      tally.regressed += 1;
      report_.regressions += 1;
    }
    report_.entries.push_back(std::move(entry));
  }

  void compare_text(const std::string& section, const std::string& key,
                    const std::string& a, const std::string& b,
                    DiffStatus on_mismatch, std::string note = "") {
    SectionCounts& tally = counts(section);
    tally.checked += 1;
    if (a == b) {
      tally.identical += 1;
      return;
    }
    DiffEntry entry;
    entry.section = section;
    entry.key = key;
    entry.numeric = false;
    entry.a_text = a;
    entry.b_text = b;
    entry.status = on_mismatch;
    entry.note = std::move(note);
    switch (on_mismatch) {
      case DiffStatus::kIdentical:
      case DiffStatus::kWithinTolerance:
        tally.within_tolerance += 1;
        break;
      case DiffStatus::kRegressed:
        tally.regressed += 1;
        report_.regressions += 1;
        break;
      case DiffStatus::kInfo:
        tally.info += 1;
        break;
    }
    report_.entries.push_back(std::move(entry));
  }

  /// Compares the union of two value lists under the per-key tolerance
  /// rules. Keys present on only one side compare against 0 with a note.
  void compare_value_lists(const std::string& section,
                           const manifest::ValueList& list_a,
                           const manifest::ValueList& list_b) {
    const std::map<std::string, double> map_a = to_value_map(list_a);
    const std::map<std::string, double> map_b = to_value_map(list_b);
    std::set<std::string> keys;
    for (const auto& [key, value] : map_a) keys.insert(key);
    for (const auto& [key, value] : map_b) keys.insert(key);
    for (const std::string& key : keys) {
      const auto it_a = map_a.find(key);
      const auto it_b = map_b.find(key);
      std::string note;
      if (it_a == map_a.end()) note = "only in B";
      if (it_b == map_b.end()) note = "only in A";
      compare_numeric(section, key, it_a == map_a.end() ? 0.0 : it_a->second,
                      it_b == map_b.end() ? 0.0 : it_b->second,
                      is_exact_key(key), std::move(note));
    }
  }

  // -- sections ------------------------------------------------------------

  void diff_run_identity() {
    compare_text("run", "command", a_.command, b_.command, DiffStatus::kInfo,
                 "runs come from different commands");
    compare_text("run", "build", a_.build, b_.build, DiffStatus::kInfo,
                 "runs come from different builds");
  }

  void diff_config() {
    std::set<std::string> keys;
    for (const auto& [key, value] : a_.config) keys.insert(key);
    for (const auto& [key, value] : b_.config) keys.insert(key);
    for (const std::string& key : keys) {
      const std::optional<std::string> value_a = a_.config_value(key);
      const std::optional<std::string> value_b = b_.config_value(key);
      compare_text("config", key, value_a.value_or("<absent>"),
                   value_b.value_or("<absent>"), DiffStatus::kInfo,
                   "config drift — context for the deltas below");
    }
  }

  void diff_artifacts() {
    std::set<std::string> names;
    for (const manifest::ArtifactRecord& artifact : a_.artifacts) {
      names.insert(artifact.name);
    }
    for (const manifest::ArtifactRecord& artifact : b_.artifacts) {
      names.insert(artifact.name);
    }
    for (const std::string& name : names) {
      const manifest::ArtifactRecord* artifact_a = a_.find_artifact(name);
      const manifest::ArtifactRecord* artifact_b = b_.find_artifact(name);
      const bool info = is_info_artifact(name);
      const std::string section = "artifact";
      if (artifact_a == nullptr || artifact_b == nullptr) {
        compare_text(section, name + ".present",
                     artifact_a != nullptr ? "yes" : "no",
                     artifact_b != nullptr ? "yes" : "no",
                     info ? DiffStatus::kInfo : DiffStatus::kRegressed,
                     "artifact written by only one run");
        continue;
      }
      if (info) {
        compare_text(section, name + ".hash", artifact_a->hash,
                     artifact_b->hash, DiffStatus::kInfo,
                     "host-time artifact — informational");
        continue;
      }
      std::string note;
      if (artifact_a->hash != artifact_b->hash) {
        note = "rows " + std::to_string(artifact_a->rows) + " -> " +
               std::to_string(artifact_b->rows) + ", bytes " +
               std::to_string(artifact_a->bytes) + " -> " +
               std::to_string(artifact_b->bytes) +
               "; see the semantic sections for what moved";
      }
      compare_text(section, name + ".hash", artifact_a->hash, artifact_b->hash,
                   options_.expect_identical ? DiffStatus::kRegressed
                                             : DiffStatus::kInfo,
                   std::move(note));
    }
  }

  void diff_summaries() {
    std::set<std::string> layers;
    for (const auto& [layer, values] : a_.summaries) layers.insert(layer);
    for (const auto& [layer, values] : b_.summaries) layers.insert(layer);
    static const manifest::ValueList kEmpty;
    for (const std::string& layer : layers) {
      const manifest::ValueList* values_a = a_.find_summary(layer);
      const manifest::ValueList* values_b = b_.find_summary(layer);
      compare_value_lists("summary." + layer,
                          values_a != nullptr ? *values_a : kEmpty,
                          values_b != nullptr ? *values_b : kEmpty);
    }
  }

  void diff_stage_attribution() {
    if (!options_.load_artifacts) return;
    const manifest::ArtifactRecord* artifact_a = a_.find_artifact("spans");
    const manifest::ArtifactRecord* artifact_b = b_.find_artifact("spans");
    if (artifact_a == nullptr || artifact_b == nullptr) return;
    const std::optional<std::vector<span::SpanData>> spans_a =
        span::load_spans_file(artifact_a->path);
    const std::optional<std::vector<span::SpanData>> spans_b =
        span::load_spans_file(artifact_b->path);
    if (!spans_a.has_value() || !spans_b.has_value()) {
      note_entry("stage", "artifacts",
                 "span artifacts unavailable — no stage-delta attribution");
      return;
    }
    const StageTotals totals_a = stage_totals(span::analyze_spans(*spans_a));
    const StageTotals totals_b = stage_totals(span::analyze_spans(*spans_b));

    report_.has_stage_attribution = true;
    report_.total_time_a_s = totals_a.total_s;
    report_.total_time_b_s = totals_b.total_s;
    report_.total_delta_s = totals_b.total_s - totals_a.total_s;

    std::set<std::string> stage_names;
    for (const auto& [name, seconds] : totals_a.critical_s)
      stage_names.insert(name);
    for (const auto& [name, seconds] : totals_b.critical_s)
      stage_names.insert(name);
    for (const std::string& name : stage_names) {
      const auto it_a = totals_a.critical_s.find(name);
      const auto it_b = totals_b.critical_s.find(name);
      StageDelta stage;
      stage.name = name;
      stage.critical_a_s = it_a == totals_a.critical_s.end() ? 0.0 : it_a->second;
      stage.critical_b_s = it_b == totals_b.critical_s.end() ? 0.0 : it_b->second;
      stage.delta_s = stage.critical_b_s - stage.critical_a_s;
      report_.stage_delta_sum_s += stage.delta_s;
      report_.stages.push_back(std::move(stage));

      compare_numeric("stage", name + ".critical_s",
                      report_.stages.back().critical_a_s,
                      report_.stages.back().critical_b_s, /*exact=*/false);
    }
    for (StageDelta& stage : report_.stages) {
      stage.share = report_.total_delta_s == 0.0
                        ? 0.0
                        : stage.delta_s / report_.total_delta_s;
    }
    std::stable_sort(report_.stages.begin(), report_.stages.end(),
                     [](const StageDelta& lhs, const StageDelta& rhs) {
                       return std::abs(lhs.delta_s) > std::abs(rhs.delta_s);
                     });
    if (!report_.stages.empty() && report_.stages.front().delta_s != 0.0) {
      report_.top_stage = report_.stages.front().name;
    }
  }

  void diff_slos() {
    std::set<std::string> keys;
    const auto slo_key = [](const manifest::SloVerdict& slo) {
      return slo.name + "[" + slo.dimension + "]." + slo.stat;
    };
    std::map<std::string, const manifest::SloVerdict*> map_a;
    std::map<std::string, const manifest::SloVerdict*> map_b;
    for (const manifest::SloVerdict& slo : a_.slos) {
      map_a[slo_key(slo)] = &slo;
      keys.insert(slo_key(slo));
    }
    for (const manifest::SloVerdict& slo : b_.slos) {
      map_b[slo_key(slo)] = &slo;
      keys.insert(slo_key(slo));
    }
    for (const std::string& key : keys) {
      const auto it_a = map_a.find(key);
      const auto it_b = map_b.find(key);
      const std::string status_a =
          it_a == map_a.end() ? "<absent>" : it_a->second->status;
      const std::string status_b =
          it_b == map_b.end() ? "<absent>" : it_b->second->status;
      const bool newly_violated = status_b == "violated" && status_a != "violated";
      compare_text("slo", key, status_a, status_b,
                   newly_violated ? DiffStatus::kRegressed : DiffStatus::kInfo,
                   newly_violated ? "objective newly violated in B"
                                  : "verdict changed");
    }
  }

  void diff_bench() { compare_value_lists("bench", a_.bench, b_.bench); }

  void diff_host() { compare_value_lists("host", a_.host, b_.host); }

  const manifest::RunManifest& a_;
  const manifest::RunManifest& b_;
  const DiffOptions& options_;
  DiffReport report_;
};

void append_entry_json(std::string& out, const DiffEntry& entry) {
  out += "{\"section\":";
  append_json_string(out, entry.section);
  out += ",\"key\":";
  append_json_string(out, entry.key);
  out += ",\"status\":";
  append_json_string(out, to_string(entry.status));
  if (entry.numeric) {
    out += ",\"a\":";
    append_double(out, entry.a);
    out += ",\"b\":";
    append_double(out, entry.b);
    out += ",\"delta\":";
    append_double(out, entry.delta);
    out += ",\"rel\":";
    append_double(out, entry.rel);
  } else {
    out += ",\"a\":";
    append_json_string(out, entry.a_text);
    out += ",\"b\":";
    append_json_string(out, entry.b_text);
  }
  if (!entry.note.empty()) {
    out += ",\"note\":";
    append_json_string(out, entry.note);
  }
  out += '}';
}

std::string format_seconds(double seconds) {
  std::string out;
  append_double(out, seconds);
  return out;
}

}  // namespace

const char* to_string(DiffStatus status) {
  switch (status) {
    case DiffStatus::kIdentical:
      return "identical";
    case DiffStatus::kWithinTolerance:
      return "within-tolerance";
    case DiffStatus::kRegressed:
      return "regressed";
    case DiffStatus::kInfo:
      return "info";
  }
  return "unknown";
}

DiffReport diff_runs(const manifest::RunManifest& a,
                     const manifest::RunManifest& b, const DiffOptions& options,
                     const std::string& path_a, const std::string& path_b) {
  return Differ(a, b, options).run(path_a, path_b);
}

void write_diff_json(const DiffReport& report, std::ostream& out) {
  std::string body;
  body.reserve(4096);
  body += "{\"diff\":{\"a\":";
  append_json_string(body, report.path_a);
  body += ",\"b\":";
  append_json_string(body, report.path_b);
  body += ",\"command_a\":";
  append_json_string(body, report.command_a);
  body += ",\"command_b\":";
  append_json_string(body, report.command_b);
  body += ",\"build_a\":";
  append_json_string(body, report.build_a);
  body += ",\"build_b\":";
  append_json_string(body, report.build_b);
  body += ",\"identical\":";
  body += report.identical ? "true" : "false";
  body += ",\"regressions\":";
  append_u64(body, report.regressions);
  body += "},\"sections\":{";
  bool first = true;
  for (const auto& [name, tally] : report.sections) {
    if (!first) body += ',';
    first = false;
    append_json_string(body, name);
    body += ":{\"checked\":";
    append_u64(body, tally.checked);
    body += ",\"identical\":";
    append_u64(body, tally.identical);
    body += ",\"within_tolerance\":";
    append_u64(body, tally.within_tolerance);
    body += ",\"regressed\":";
    append_u64(body, tally.regressed);
    body += ",\"info\":";
    append_u64(body, tally.info);
    body += '}';
  }
  body += "},\"entries\":[";
  first = true;
  for (const DiffEntry& entry : report.entries) {
    if (!first) body += ',';
    first = false;
    append_entry_json(body, entry);
  }
  body += ']';
  if (report.has_stage_attribution) {
    body += ",\"stage_attribution\":{\"total_a_s\":";
    append_double(body, report.total_time_a_s);
    body += ",\"total_b_s\":";
    append_double(body, report.total_time_b_s);
    body += ",\"total_delta_s\":";
    append_double(body, report.total_delta_s);
    body += ",\"stage_delta_sum_s\":";
    append_double(body, report.stage_delta_sum_s);
    body += ",\"top_stage\":";
    append_json_string(body, report.top_stage);
    body += ",\"stages\":[";
    first = true;
    for (const StageDelta& stage : report.stages) {
      if (!first) body += ',';
      first = false;
      body += "{\"name\":";
      append_json_string(body, stage.name);
      body += ",\"a_s\":";
      append_double(body, stage.critical_a_s);
      body += ",\"b_s\":";
      append_double(body, stage.critical_b_s);
      body += ",\"delta_s\":";
      append_double(body, stage.delta_s);
      body += ",\"share\":";
      append_double(body, stage.share);
      body += '}';
    }
    body += "]}";
  }
  body += "}\n";
  out << body;
}

void write_diff_markdown(const DiffReport& report, std::ostream& out) {
  out << "# Run diff\n\n";
  out << "- A: `" << report.path_a << "` (" << report.command_a << ", build "
      << report.build_a << ")\n";
  out << "- B: `" << report.path_b << "` (" << report.command_b << ", build "
      << report.build_b << ")\n";
  if (report.identical) {
    out << "- verdict: **identical** — no semantic differences\n";
  } else if (report.regressions == 0) {
    out << "- verdict: **within tolerance** — differences explained below\n";
  } else {
    out << "- verdict: **regressed** — " << report.regressions
        << " gated difference(s)\n";
  }
  out << "\n## Sections\n\n";
  out << "| section | checked | identical | within tol | regressed | info |\n";
  out << "|---|---:|---:|---:|---:|---:|\n";
  for (const auto& [name, tally] : report.sections) {
    out << "| " << name << " | " << tally.checked << " | " << tally.identical
        << " | " << tally.within_tolerance << " | " << tally.regressed << " | "
        << tally.info << " |\n";
  }

  if (report.has_stage_attribution) {
    out << "\n## Stage-delta attribution\n\n";
    out << "- total time A: " << format_seconds(report.total_time_a_s)
        << " s, B: " << format_seconds(report.total_time_b_s)
        << " s, delta: " << format_seconds(report.total_delta_s) << " s\n";
    out << "- per-stage critical deltas sum to "
        << format_seconds(report.stage_delta_sum_s) << " s\n";
    if (!report.top_stage.empty()) {
      out << "- largest mover: **" << report.top_stage << "**\n";
    }
    out << "\n| stage | critical A (s) | critical B (s) | delta (s) | share |\n";
    out << "|---|---:|---:|---:|---:|\n";
    for (const StageDelta& stage : report.stages) {
      out << "| " << stage.name << " | " << format_seconds(stage.critical_a_s)
          << " | " << format_seconds(stage.critical_b_s) << " | "
          << format_seconds(stage.delta_s) << " | "
          << format_seconds(stage.share) << " |\n";
    }
  }

  out << "\n## Differences\n\n";
  bool any = false;
  std::string current_section;
  std::size_t in_section = 0;
  constexpr std::size_t kMaxPerSection = 20;
  for (const DiffEntry& entry : report.entries) {
    if (entry.section != current_section) {
      if (!current_section.empty() && in_section > kMaxPerSection) {
        out << "- ... " << (in_section - kMaxPerSection) << " more in "
            << current_section << "\n";
      }
      out << "\n### " << entry.section << "\n\n";
      current_section = entry.section;
      in_section = 0;
    }
    ++in_section;
    if (in_section > kMaxPerSection) continue;
    any = true;
    out << "- `" << entry.key << "` [" << to_string(entry.status) << "] ";
    if (entry.numeric) {
      out << format_seconds(entry.a) << " -> " << format_seconds(entry.b)
          << " (delta " << format_seconds(entry.delta) << ", rel "
          << format_seconds(entry.rel) << ")";
    } else {
      out << "`" << entry.a_text << "` -> `" << entry.b_text << "`";
    }
    if (!entry.note.empty()) out << " — " << entry.note;
    out << "\n";
  }
  if (!current_section.empty() && in_section > kMaxPerSection) {
    out << "- ... " << (in_section - kMaxPerSection) << " more in "
        << current_section << "\n";
  }
  if (!any) {
    out << "(none — every compared value identical)\n";
  }
}

}  // namespace swiftest::obs::diff
