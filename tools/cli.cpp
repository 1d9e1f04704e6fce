#include "cli.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/report.hpp"
#include "obs/diff/diff.hpp"
#include "obs/export.hpp"
#include "obs/manifest/manifest.hpp"
#include "obs/health/report.hpp"
#include "obs/health/slo.hpp"
#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"
#include "obs/hub.hpp"
#include "obs/log.hpp"
#include "obs/resource.hpp"
#include "obs/sampling.hpp"
#include "obs/span/critical_path.hpp"
#include "obs/span/json.hpp"
#include "dataset/generator.hpp"
#include "dataset/io.hpp"
#include "deploy/catalog.hpp"
#include "deploy/fleet_sim.hpp"
#include "deploy/placement.hpp"
#include "deploy/planner.hpp"
#include "deploy/workload.hpp"
#include "netsim/scenario.hpp"
#include "swiftest/client.hpp"
#include "swiftest/model_io.hpp"
#include "swiftest/wire_client.hpp"

// Injected by tools/CMakeLists.txt from `git rev-parse HEAD`; "unknown"
// outside a git checkout. Run manifests carry it so `obs diff` can name the
// builds it compares.
#ifndef SWIFTEST_GIT_SHA
#define SWIFTEST_GIT_SHA "unknown"
#endif

namespace swiftest::cli {
namespace {

/// One artifact a run can write under --obs-dir. `name` is both the --obs
/// name and the manifest artifact name (what `obs diff` matches on); `file`
/// is where it lands inside DIR.
struct ObsArtifact {
  std::string_view name;
  std::string_view file;
  bool fleet_only;
  std::string_view help;
};

constexpr ObsArtifact kObsArtifacts[] = {
    {"trace_chrome", "trace.json", false, "Chrome trace_event JSON trace"},
    {"trace_jsonl", "trace.jsonl", false, "the trace as compact JSONL"},
    {"metrics", "metrics.json", false, "metrics snapshot"},
    {"spans", "spans.json", false, "causal span tree (`trace analyze` input)"},
    {"health", "health.json", false, "health snapshot (p50/p95/p99 per dimension)"},
    {"report_md", "report.md", false, "the health report as markdown"},
    {"prof", "prof.jsonl", true, "host-time profile (`profile report`)"},
    {"prof_trace", "prof_trace.json", true, "host-time Chrome trace per worker"},
    {"spill", "*.spill.jsonl", true, "full trace/span rings rotate here"},
};

/// The --obs names `command` can produce, comma-separated.
std::string obs_names(bool fleet) {
  std::string names;
  for (const ObsArtifact& a : kObsArtifacts) {
    if (a.fleet_only && !fleet) continue;
    if (!names.empty()) names += ", ";
    names += a.name;
  }
  return names;
}

std::string usage() {
  std::string text = std::string(
      "usage: swiftest-cli <command> [options]\n"
      "\n"
      "commands:\n"
      "  campaign --tests N [--year Y] [--seed S] --out FILE\n"
      "  report   --in FILE\n"
      "  test     --rate MBPS [--tech 4g|5g|wifi4|wifi5|wifi6] [--wire] [--seed S]\n"
      "           [--models FILE]\n"
      "  run      alias for test\n"
      "  fit      --in FILE --out FILE    fit per-technology bandwidth models\n"
      "  plan     [--tests-per-day N] [--regional]\n"
      "  fleet    [--servers N] [--days D] [--tests-per-day N]\n"
      "           [--backend analytic|packet] [--chunk N] [--jobs N]\n"
      "           --chunk bounds the tests per execution chunk (default 256);\n"
      "           --jobs streams chunks through up to N worker threads, drawn,\n"
      "           run and committed in order (0 = hardware concurrency). Every\n"
      "           artifact is a pure function of (config, seed): neither flag\n"
      "           changes any output.\n"
      "  trace    analyze FILE [--json OUT] [--md OUT]\n"
      "           critical-path latency attribution of a span JSON file\n"
      "  profile  report FILE [--md OUT]\n"
      "           parallel efficiency, serial fraction, and Amdahl attribution\n"
      "           of a prof.jsonl host-time profile\n"
      "  obs      diff MANIFEST_A MANIFEST_B [--json OUT] [--md OUT]\n"
      "           [--expect-identical] [--tolerance R] [--no-artifacts]\n"
      "           semantic cross-run diff of two run manifests (and the\n"
      "           artifacts they point at); exits 4 on a gated regression\n"
      "\n"
      "exit codes:\n"
      "  0 success   1 file/runtime error   2 usage error (unknown flags too)\n"
      "  3 SLO violation (--slo)   4 diff regression (obs diff)\n"
      "\n"
      "run artifacts (test, run, fleet):\n"
      "  --obs-dir DIR           write the --obs artifacts into DIR (created if\n"
      "                          missing) and always DIR/manifest.jsonl: config,\n"
      "                          build, artifact hashes, layer summaries, bench\n"
      "                          values and SLO verdicts, for `obs diff`\n"
      "  --obs NAME[,NAME...]    which artifacts to write (needs --obs-dir):\n");
  for (const ObsArtifact& a : kObsArtifacts) {
    std::string line = "    " + std::string(a.name);
    line.resize(18, ' ');
    line += a.file;
    line.resize(35, ' ');
    text += line + (a.fleet_only ? "fleet only: " : "") + std::string(a.help) + "\n";
  }
  return text + std::string(
      "  --trace-categories L    comma list: ") + obs::kCategoryListCsv + " (default all)\n"
      "\n"
      "bounded observability (fleet):\n"
      "  --obs-sample 1/N        retain 1-in-N tests' trace events and spans,\n"
      "                          keyed on the test identity: byte-identical\n"
      "                          for every --chunk/--jobs (both backends)\n"
      "  --obs-budget-mb N       observability memory budget: the sampling rate\n"
      "                          halves (recorded) at planned checkpoints where\n"
      "                          the modeled footprint would exceed it\n"
      "  --progress              live test/chunk/RSS progress line on stderr\n"
      "                          (host telemetry; never part of artifacts)\n"
      "  Dropped trace events and spans are always counted in the metrics\n"
      "  (obs.trace_dropped, obs.span_dropped) and the health meta.\n"
      "\n"
      "logging (all commands):\n"
      "  --log-level L           debug|info|warn|error (default warn)\n"
      "\n"
      "health / SLO / profiling (test, run, fleet):\n"
      "  --slo FILE              evaluate an SLO spec (JSON); any violation makes\n"
      "                          the process exit 3\n"
      "  --profile               print the host-time profile report (as\n"
      "                          `profile report` renders it) after the run\n";
}

/// Option keys each command accepts besides --log-level; `run` shares
/// `test`'s. Any other --key is a usage error, so a typo or a retired flag
/// fails loudly instead of being ignored.
const std::map<std::string_view, std::vector<std::string_view>> kCommandKeys = {
    {"campaign", {"tests", "year", "seed", "out"}},
    {"report", {"in"}},
    {"test",
     {"rate", "tech", "wire", "seed", "models", "trace-categories", "slo", "profile",
      "obs-dir", "obs"}},
    {"fit", {"in", "out"}},
    {"plan", {"tests-per-day", "regional"}},
    {"fleet",
     {"servers", "days", "tests-per-day", "seed", "backend", "chunk", "jobs",
      "obs-sample", "obs-budget-mb", "progress", "trace-categories", "slo",
      "profile", "obs-dir", "obs"}},
    {"trace", {"json", "md"}},
    {"profile", {"md"}},
    {"obs", {"json", "md", "expect-identical", "tolerance", "no-artifacts"}},
};

/// Minimal --key value parser; flags without values map to "true".
class Options {
 public:
  /// Parses `args` for `command`, rejecting any key the command does not
  /// accept (see kCommandKeys).
  static std::optional<Options> parse(std::span<const std::string> args,
                                      std::string_view command, std::ostream& out) {
    const auto& accepted = kCommandKeys.at(command == "run" ? "test" : command);
    Options options;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) != 0) {
        out << "unexpected argument: " << arg << "\n";
        return std::nullopt;
      }
      const std::string key = arg.substr(2);
      if (key != "log-level" &&
          std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
        out << "unknown option " << arg << " for " << command << " (accepted:";
        for (const std::string_view k : accepted) out << " --" << k;
        out << " --log-level)\n";
        return std::nullopt;
      }
      if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        options.values_[key] = args[++i];
      } else {
        options.values_[key] = "true";
      }
    }
    return options;
  }

  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  [[nodiscard]] long get_int(const std::string& key, long fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stol(it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Maps --log-level onto obs::set_log_level. Returns false (with a message)
/// on an unknown level name.
bool apply_log_level(const Options& options, std::ostream& out) {
  if (!options.has("log-level")) return true;
  const std::string name = options.get("log-level", "");
  if (name == "debug") {
    obs::set_log_level(obs::LogLevel::kDebug);
  } else if (name == "info") {
    obs::set_log_level(obs::LogLevel::kInfo);
  } else if (name == "warn") {
    obs::set_log_level(obs::LogLevel::kWarn);
  } else if (name == "error") {
    obs::set_log_level(obs::LogLevel::kError);
  } else {
    out << "unknown --log-level '" << name
        << "' (expected debug, info, warn, or error)\n";
    return false;
  }
  return true;
}

using Render = std::function<void(std::ostream&)>;

/// Renders into a fresh `path` and echoes `label: path<note>`. False (after
/// a "cannot write" message) when the file cannot be opened.
bool write_file(const std::string& path, std::string_view label, std::ostream& out,
                const Render& render, const std::string& note = "") {
  {
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    if (!file) {
      out << "cannot write " << path << "\n";
      return false;
    }
    render(file);
  }
  out << label << ": " << path << note << "\n";
  return true;
}

/// The --json/--md convention of `trace analyze` and `obs diff`: each flag
/// writes its rendering to the named file, and with neither the markdown
/// goes to stdout. Returns 0, or 1 when a file cannot be written.
int write_json_md(const Options& options, const std::string& label, std::ostream& out,
                  const Render& json, const Render& md) {
  if (!options.has("json") && !options.has("md")) {
    md(out);
    return 0;
  }
  const bool ok =
      (!options.has("json") ||
       write_file(options.get("json", ""), label + " json", out, json)) &&
      (!options.has("md") || write_file(options.get("md", ""), label + " md", out, md));
  return ok ? 0 : 1;
}

/// A run's --obs-dir/--obs selection and the manifest that records it.
/// Every artifact lands in DIR under its kObsArtifacts file name, is hashed
/// into the manifest, and is echoed as `name: path`. The manifest is always
/// filled in and written as DIR/manifest.jsonl whenever DIR is given.
class RunOutputs {
 public:
  /// Validates --obs-dir/--obs against what `command` ("test" or "fleet")
  /// can produce and creates DIR. Returns 0, 2 on a usage error, or 1 when
  /// DIR cannot be created.
  int init(const Options& options, const std::string& command, std::ostream& out) {
    manifest_.command = command;
    manifest_.build = SWIFTEST_GIT_SHA;
    const bool fleet = command == "fleet";
    if (options.has("obs-dir") != options.has("obs")) {
      out << "--obs-dir and --obs go together (--obs names: " << obs_names(fleet)
          << ")\n";
      return 2;
    }
    if (!options.has("obs")) return 0;
    std::istringstream list(options.get("obs", ""));
    for (std::string name; std::getline(list, name, ',');) {
      const auto* it = std::find_if(
          std::begin(kObsArtifacts), std::end(kObsArtifacts),
          [&](const ObsArtifact& a) { return a.name == name && (fleet || !a.fleet_only); });
      if (it == std::end(kObsArtifacts)) {
        out << "unknown --obs name '" << name << "' for " << command
            << " (valid: " << obs_names(fleet) << ")\n";
        return 2;
      }
      files_.emplace(name, it->file);
    }
    dir_ = options.get("obs-dir", "");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      out << "cannot create " << dir_ << ": " << ec.message() << "\n";
      return 1;
    }
    return 0;
  }

  [[nodiscard]] bool wants(std::string_view name) const { return files_.contains(name); }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] obs::manifest::RunManifest& manifest() { return manifest_; }

  /// Renders artifact `name` into DIR when it was requested, registers it
  /// in the manifest and echoes `name: path<note>`. False when the file
  /// cannot be opened.
  bool write(std::string_view name, std::ostream& out, const Render& render,
             const std::string& note = "") {
    const auto it = files_.find(name);
    if (it == files_.end()) return true;
    const std::string path = (std::filesystem::path(dir_) / it->second).string();
    if (!write_file(path, name, out, render, note)) return false;
    add(name, path);
    return true;
  }

  /// Registers a file the run wrote (content hash, bytes, rows) in the
  /// manifest. A manifest-side read failure warns on stderr instead of
  /// failing the run: the artifact itself landed fine.
  void add(std::string_view name, const std::string& path) {
    std::string error;
    auto record = obs::manifest::artifact_from_file(std::string(name), path, &error);
    if (!record) {
      std::cerr << "warning: manifest: " << error << "\n";
      return;
    }
    manifest_.artifacts.push_back(std::move(*record));
  }

  /// Writes DIR/manifest.jsonl (if DIR was given); returns 0 or 1.
  int write_manifest(std::ostream& out) {
    if (dir_.empty()) return 0;
    const bool ok = write_file(
        (std::filesystem::path(dir_) / "manifest.jsonl").string(), "manifest", out,
        [&](std::ostream& f) { obs::manifest::write_manifest_jsonl(manifest_, f); });
    return ok ? 0 : 1;
  }

 private:
  std::string dir_;
  std::map<std::string, std::string_view, std::less<>> files_;  // --obs name -> file
  obs::manifest::RunManifest manifest_;
};

/// Builds an obs::Hub when a trace, metrics or spans artifact is requested;
/// null hub (and success) otherwise. The tracer records only when a trace
/// artifact is requested — a metrics- or spans-only run pays nothing for
/// trace events — and --trace-categories narrows it further. Returns false
/// on a bad --trace-categories list — validated unconditionally, so a
/// typo'd category fails the run loudly even when no trace is requested.
bool setup_obs(const Options& options, const RunOutputs& outputs, std::ostream& out,
               std::unique_ptr<obs::Hub>& hub) {
  std::optional<std::uint32_t> mask;
  if (options.has("trace-categories")) {
    std::string bad_token;
    mask = obs::parse_category_mask(options.get("trace-categories", ""), &bad_token);
    if (!mask) {
      out << "unknown trace category '" << bad_token
          << "' in --trace-categories '" << options.get("trace-categories", "")
          << "' (valid: " << obs::kCategoryListCsv << ")\n";
      return false;
    }
  }
  const bool wants_trace = outputs.wants("trace_chrome") || outputs.wants("trace_jsonl");
  if (!wants_trace && !outputs.wants("metrics") && !outputs.wants("spans")) return true;
  hub = std::make_unique<obs::Hub>();
  hub->tracer.set_category_mask(wants_trace ? mask.value_or(obs::kAllCategories) : 0);
  return true;
}

const char* slo_status_name(obs::health::SloStatus status) {
  switch (status) {
    case obs::health::SloStatus::kPass:
      return "pass";
    case obs::health::SloStatus::kSkipped:
      return "skipped";
    case obs::health::SloStatus::kViolated:
      return "violated";
  }
  return "unknown";
}

/// " (N <unit>[, M dropped])": the count suffix of a trace or spans echo.
std::string count_note(std::size_t kept, const char* unit, std::uint64_t dropped) {
  std::string note = " (" + std::to_string(kept) + " " + unit;
  if (dropped > 0) note += ", " + std::to_string(dropped) + " dropped";
  return note + ")";
}

/// Writes whichever trace/metrics/spans artifacts were requested. Returns 1
/// if a file cannot be opened. Data loss is surfaced before the artifacts
/// render: a stderr warning plus only-nonzero obs.trace_dropped /
/// obs.span_dropped counters in the metrics snapshot, so a wrapped ring
/// can't masquerade as a complete trace.
int flush_obs(RunOutputs& outputs, std::ostream& out, obs::Hub* hub) {
  if (hub == nullptr) return 0;
  if (hub->tracer.dropped() > 0) {
    std::cerr << "warning: trace ring dropped " << hub->tracer.dropped()
              << " events (use --obs-sample or --obs spill)\n";
    hub->metrics.counter("obs.trace_dropped").inc(hub->tracer.dropped());
  }
  if (hub->spans.dropped() > 0) {
    std::cerr << "warning: span store dropped " << hub->spans.dropped()
              << " spans (use --obs-sample or --obs spill)\n";
    hub->metrics.counter("obs.span_dropped").inc(hub->spans.dropped());
  }
  const std::string trace_note =
      count_note(hub->tracer.size(), "events", hub->tracer.dropped());
  const bool ok =
      outputs.write("trace_chrome", out,
                    [&](std::ostream& f) { obs::write_chrome_trace(hub->tracer, f); },
                    trace_note) &&
      outputs.write("trace_jsonl", out,
                    [&](std::ostream& f) { obs::write_trace_jsonl(hub->tracer, f); },
                    trace_note) &&
      outputs.write("metrics", out,
                    [&](std::ostream& f) {
                      obs::write_metrics_json(hub->metrics.snapshot(), f);
                    }) &&
      outputs.write("spans", out,
                    [&](std::ostream& f) { obs::span::write_spans_json(hub->spans, f); },
                    count_note(hub->spans.size(), "spans", hub->spans.dropped()));
  if (!ok) return 1;
  auto& summaries = outputs.manifest().summaries;
  summaries["trace"] = obs::summarize_for_manifest(hub->tracer);
  summaries["metrics"] = obs::summarize_for_manifest(hub->metrics.snapshot());
  summaries["spans"] = obs::span::summarize_for_manifest(hub->spans);
  return 0;
}

/// True when any health/SLO output was requested (a HealthMonitor is only
/// built — and the run only pays for aggregation — in that case).
bool wants_health(const Options& options, const RunOutputs& outputs) {
  return outputs.wants("health") || outputs.wants("report_md") || options.has("slo");
}

/// Writes the requested health artifacts and evaluates the SLO spec, if any.
/// Returns 0 on success, 1 on an unwritable file, 2 on a malformed spec, and
/// 3 when at least one objective is violated — the CI gate's exit code.
int flush_health(const Options& options, RunOutputs& outputs, std::ostream& out,
                 const obs::health::HealthMonitor* health,
                 const obs::health::ReportMeta& meta) {
  if (health == nullptr) return 0;
  const obs::health::HealthSnapshot snapshot = health->snapshot();
  obs::manifest::RunManifest& mf = outputs.manifest();
  mf.summaries["health"] = obs::health::summarize_for_manifest(snapshot);

  std::optional<obs::health::SloEvaluation> evaluation;
  if (options.has("slo")) {
    std::string error;
    const auto specs = obs::health::load_slo_file(options.get("slo", ""), &error);
    if (!specs) {
      out << "bad --slo spec: " << error << "\n";
      return 2;
    }
    evaluation = obs::health::evaluate_slos(*specs, snapshot);
  }
  const obs::health::SloEvaluation* eval_ptr =
      evaluation ? &*evaluation : nullptr;

  const bool ok =
      outputs.write("health", out,
                    [&](std::ostream& f) {
                      obs::health::write_health_json(snapshot, meta, eval_ptr, f);
                    }) &&
      outputs.write("report_md", out, [&](std::ostream& f) {
        obs::health::write_health_markdown(snapshot, meta, eval_ptr, f);
      });
  if (!ok) return 1;
  if (evaluation) {
    for (const auto& r : evaluation->results) {
      mf.slos.push_back(
          {r.spec.name, r.dimension, r.spec.stat, r.observed, slo_status_name(r.status)});
      if (r.status != obs::health::SloStatus::kViolated) continue;
      out << "SLO VIOLATION: " << r.spec.name << " [" << r.dimension << "] "
          << r.spec.stat << " = " << r.observed << " (samples " << r.samples
          << ")\n";
    }
    out << "slo: " << evaluation->results.size() - evaluation->violations()
        << "/" << evaluation->results.size() << " objectives passed\n";
    if (!evaluation->ok()) return 3;
  }
  return 0;
}

/// Host wall-clock milliseconds since `start` (manifest host lines only).
double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// Feeds every closed span's duration into the health monitor as the
/// "stage_s" metric under dimension "stage:<name>", so an SLO spec can bound
/// per-stage latency (e.g. p95 swiftest.convergence time).
void record_stage_health(const obs::Hub* hub, obs::health::HealthMonitor* health) {
  if (hub == nullptr || health == nullptr) return;
  for (const auto& s : hub->spans.spans()) {
    if (!s.closed) continue;
    const std::string dims[] = {std::string("stage:") + s.name};
    health->record("stage_s", core::to_seconds(s.duration()), dims);
  }
}

int cmd_trace(std::span<const std::string> args, std::ostream& out) {
  if (args.size() < 2 || args[0] != "analyze" || args[1].rfind("--", 0) == 0) {
    out << "usage: swiftest-cli trace analyze FILE [--json OUT] [--md OUT]\n";
    return 2;
  }
  const std::string path = args[1];
  const auto options = Options::parse(args.subspan(2), "trace", out);
  if (!options) return 2;
  if (!apply_log_level(*options, out)) return 2;

  std::string error;
  const auto spans = obs::span::load_spans_file(path, &error);
  if (!spans) {
    out << "cannot analyze " << path << ": " << error << "\n";
    return 1;
  }
  const obs::span::AttributionReport report = obs::span::analyze_spans(*spans);
  return write_json_md(
      *options, "attribution", out,
      [&](std::ostream& f) { obs::span::write_attribution_json(report, f); },
      [&](std::ostream& f) { obs::span::write_attribution_markdown(report, f); });
}

std::optional<dataset::AccessTech> parse_tech(const std::string& name) {
  if (name == "3g") return dataset::AccessTech::k3G;
  if (name == "4g") return dataset::AccessTech::k4G;
  if (name == "5g") return dataset::AccessTech::k5G;
  if (name == "wifi4") return dataset::AccessTech::kWiFi4;
  if (name == "wifi5" || name == "wifi") return dataset::AccessTech::kWiFi5;
  if (name == "wifi6") return dataset::AccessTech::kWiFi6;
  return std::nullopt;
}

int cmd_campaign(const Options& options, std::ostream& out) {
  if (!options.has("tests") || !options.has("out")) {
    out << "campaign requires --tests and --out\n";
    return 2;
  }
  const auto tests = static_cast<std::size_t>(options.get_int("tests", 0));
  const int year = static_cast<int>(options.get_int("year", 2021));
  const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
  const std::string path = options.get("out", "");
  const auto records = dataset::generate_campaign(tests, year, seed);
  dataset::write_csv_file(path, records);
  out << "wrote " << records.size() << " records to " << path << "\n";
  return 0;
}

int cmd_report(const Options& options, std::ostream& out) {
  if (!options.has("in")) {
    out << "report requires --in\n";
    return 2;
  }
  const auto records = dataset::read_csv_file(options.get("in", ""));
  out << analysis::generate_report(records);
  return 0;
}

int cmd_test(const Options& options, std::ostream& out) {
  const auto wall_start = std::chrono::steady_clock::now();
  if (!options.has("rate")) {
    out << "test requires --rate\n";
    return 2;
  }
  const double rate = options.get_double("rate", 100.0);
  const auto tech = parse_tech(options.get("tech", "5g"));
  if (!tech) {
    out << "unknown --tech\n";
    return 2;
  }
  RunOutputs outputs;
  if (const int rc = outputs.init(options, "test", out); rc != 0) return rc;
  std::unique_ptr<obs::Hub> hub;
  if (!setup_obs(options, outputs, out, hub)) return 2;
  // Shared by the manifest's config lines and the health meta.
  const obs::health::ReportMeta run_config = {
      {"tech", options.get("tech", "5g")},
      {"rate_mbps", options.get("rate", "")},
      {"seed", std::to_string(options.get_int("seed", 42))},
  };
  obs::manifest::RunManifest& mf = outputs.manifest();
  mf.config = run_config;
  mf.config.emplace_back("wire", options.has("wire") ? "true" : "false");
  std::unique_ptr<obs::hostprof::HostProfiler> hostprof;
  if (options.has("profile")) {
    hostprof = std::make_unique<obs::hostprof::HostProfiler>();
  }
  netsim::ScenarioConfig net;
  net.access_rate = core::Bandwidth::mbps(rate);
  netsim::Scenario scenario(net,
                            static_cast<std::uint64_t>(options.get_int("seed", 42)));
  scenario.scheduler().set_obs(hub.get());
  swift::ModelRegistry registry;
  if (options.has("models")) {
    swift::load_models_file(options.get("models", ""), registry);
  }
  swift::SwiftestConfig cfg;
  cfg.tech = *tech;
  bts::BtsResult result;
  {
    const obs::hostprof::HostScope scope(
        hostprof != nullptr ? &hostprof->main() : nullptr, "cli.test_run");
    if (options.has("wire")) {
      swift::WireClient client(cfg, registry);
      result = client.run(scenario);
    } else {
      swift::SwiftestClient client(cfg, registry);
      result = client.run(scenario);
    }
  }
  out << "estimate: " << result.bandwidth_mbps << " Mbps (truth " << rate << ")\n"
      << "probe time: " << core::to_seconds(result.probe_duration) << " s; data: "
      << core::to_string(result.data_used) << "; servers: " << result.connections_used
      << "\n";
  mf.bench = {
      {"estimate_mbps", result.bandwidth_mbps},
      {"probe_time_s", core::to_seconds(result.probe_duration)},
      {"data_mb", result.data_used.megabytes()},
      {"servers_used", static_cast<double>(result.connections_used)},
  };
  const int obs_rc = flush_obs(outputs, out, hub.get());
  if (obs_rc != 0) return obs_rc;

  int health_rc = 0;
  if (wants_health(options, outputs)) {
    obs::health::HealthMonitor health;
    obs::health::TestSample sample;
    sample.duration_s = core::to_seconds(result.total_duration());
    sample.data_mb = result.data_used.megabytes();
    sample.deviation = bts::deviation(result.bandwidth_mbps, rate);
    const std::string dims[] = {dataset::dimension_key(*tech)};
    sample.dimensions = dims;
    health.note_arrival(0.0);
    health.record_test(sample);
    record_stage_health(hub.get(), &health);
    obs::health::ReportMeta meta = {{"command", "test"}};
    meta.insert(meta.end(), run_config.begin(), run_config.end());
    health_rc = flush_health(options, outputs, out, &health, meta);
  }
  if (hostprof != nullptr) {
    hostprof->finish();
    obs::hostprof::write_prof_report_markdown(
        obs::hostprof::analyze_prof(hostprof->snapshot()), out);
  }
  mf.host = {{"wall_ms", elapsed_ms(wall_start)}};
  const int manifest_rc = outputs.write_manifest(out);
  return health_rc != 0 ? health_rc : manifest_rc;
}

int cmd_fit(const Options& options, std::ostream& out) {
  if (!options.has("in") || !options.has("out")) {
    out << "fit requires --in and --out\n";
    return 2;
  }
  const auto records = dataset::read_csv_file(options.get("in", ""));
  swift::ModelRegistry registry;
  registry.fit_from_campaign(records, 1, 6, 500);
  swift::save_models_file(options.get("out", ""), registry);
  int fitted = 0;
  for (auto tech : dataset::kAllTechs) {
    if (!registry.has_fitted_model(tech)) continue;
    ++fitted;
    out << "  " << dataset::to_string(tech) << ": "
        << registry.model(tech).component_count() << " modes, most probable "
        << registry.model(tech).most_probable_mode() << " Mbps\n";
  }
  out << "fitted " << fitted << " model(s) from " << records.size() << " records to "
      << options.get("out", "") << "\n";
  return 0;
}

int cmd_plan(const Options& options, std::ostream& out) {
  const double tests_per_day = options.get_double("tests-per-day", 10'000.0);
  const auto records = dataset::generate_campaign(60'000, 2021, 7);
  deploy::WorkloadParams params;
  params.tests_per_day = tests_per_day;
  const auto workload = deploy::estimate_workload(records, params);
  out << "demand: " << workload.demand_mbps << " Mbps (" << tests_per_day
      << " tests/day)\n";
  const auto catalog = deploy::synthetic_catalog();
  if (options.has("regional")) {
    const auto regional = deploy::plan_regional(catalog, workload.demand_mbps);
    if (!regional.feasible) {
      out << "no feasible regional plan\n";
      return 1;
    }
    const auto domains = deploy::ixp_domains();
    for (std::size_t d = 0; d < domains.size(); ++d) {
      out << "  " << domains[d].city << ": " << regional.per_domain[d].total_servers
          << " servers, " << regional.per_domain[d].total_bandwidth_mbps << " Mbps, $"
          << regional.per_domain[d].total_cost_usd << "/month\n";
    }
    out << "total: " << regional.total_servers << " servers, $"
        << regional.total_cost_usd << "/month\n";
    return 0;
  }
  const auto plan = deploy::plan_purchase(catalog, workload.demand_mbps);
  if (!plan.feasible) {
    out << "no feasible plan\n";
    return 1;
  }
  out << "plan: " << plan.total_servers << " servers, " << plan.total_bandwidth_mbps
      << " Mbps, $" << plan.total_cost_usd << "/month\n";
  return 0;
}

int cmd_fleet(const Options& options, std::ostream& out) {
  const auto wall_start = std::chrono::steady_clock::now();
  RunOutputs outputs;
  if (const int rc = outputs.init(options, "fleet", out); rc != 0) return rc;
  // The host-time profiler spans the whole command — population draw through
  // artifact export — so the attribution covers (nearly) all of wall-clock.
  std::unique_ptr<obs::hostprof::HostProfiler> hostprof;
  if (outputs.wants("prof") || outputs.wants("prof_trace") || options.has("profile")) {
    hostprof = std::make_unique<obs::hostprof::HostProfiler>();
  }
  obs::hostprof::Timeline* host_tl =
      hostprof != nullptr ? &hostprof->main() : nullptr;

  std::vector<dataset::TestRecord> population;
  {
    const obs::hostprof::HostScope scope(host_tl, "workload.population");
    population = dataset::generate_campaign(40'000, 2021, 9);
  }
  // Everything between the population draw and the replay — model registry,
  // hub/health construction, option validation — is serial setup; covering
  // it keeps the calling-thread phase coverage honest.
  std::optional<obs::hostprof::HostScope> setup_scope;
  setup_scope.emplace(host_tl, "run.setup");
  static const swift::ModelRegistry registry;
  std::unique_ptr<obs::Hub> hub;
  if (!setup_obs(options, outputs, out, hub)) return 2;
  std::unique_ptr<obs::health::HealthMonitor> health;
  if (wants_health(options, outputs)) {
    health = std::make_unique<obs::health::HealthMonitor>();
  }
  deploy::FleetSimConfig cfg;
  cfg.obs = hub.get();
  cfg.health = health.get();
  cfg.hostprof = hostprof.get();
  cfg.seed = static_cast<std::uint64_t>(options.get_int("seed", 99));
  // Strict manual parses: std::stol would throw (or silently truncate) on
  // garbage, and these flags size the run or gate a thread pool — fail
  // loudly instead.
  const auto parse_count = [&](const char* flag, long fallback,
                               long minimum) -> std::optional<long> {
    if (!options.has(flag)) return fallback;
    const std::string text = options.get(flag, "");
    long value = 0;
    bool ok = !text.empty();
    for (const char c : text) {
      if (c < '0' || c > '9' || value > 1'000'000) {
        ok = false;
        break;
      }
      value = value * 10 + (c - '0');
    }
    if (!ok || value < minimum) {
      out << "--" << flag << " must be an integer >= " << minimum
          << " (got '" << text << "')"
          << (minimum == 0 ? "; 0 means the hardware concurrency" : "")
          << "\n";
      return std::nullopt;
    }
    return value;
  };
  const auto servers = parse_count("servers", 20, 1);
  if (!servers) return 2;
  const auto days = parse_count("days", 3, 1);
  if (!days) return 2;
  // --jobs 0 = hardware concurrency (resolved inside simulate_fleet).
  const auto jobs = parse_count("jobs", 1, 0);
  if (!jobs) return 2;
  const auto chunk = parse_count("chunk", 0, 1);
  if (!chunk) return 2;
  // --tests-per-day is each server-day's Poisson mean: a NaN or huge mean
  // would hang the draw and a negative one silently runs nothing.
  if (options.has("tests-per-day")) {
    const std::string text = options.get("tests-per-day", "");
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size() || !(value >= 0.0) ||
        value > 1e9) {
      out << "--tests-per-day must be a number in [0, 1e9] (got '" << text << "')\n";
      return 2;
    }
    cfg.tests_per_day = value;
  }
  cfg.server_count = static_cast<std::size_t>(*servers);
  cfg.days = static_cast<int>(*days);
  cfg.jobs = static_cast<std::size_t>(*jobs);
  cfg.chunk = static_cast<std::size_t>(*chunk);
  const std::string backend = options.get("backend", "analytic");
  if (backend == "packet") {
    cfg.backend = deploy::FleetBackend::kPacket;
  } else if (backend != "analytic") {
    out << "unknown --backend '" << backend << "' (expected analytic or packet)\n";
    return 2;
  }
  if (options.has("obs-sample")) {
    const auto policy = obs::SamplingPolicy::parse(options.get("obs-sample", ""));
    if (!policy) {
      out << "bad --obs-sample '" << options.get("obs-sample", "")
          << "' (expected 1/N or N)\n";
      return 2;
    }
    cfg.sample = *policy;
  }
  const long budget_mb = options.get_int("obs-budget-mb", 0);
  if (budget_mb < 0) {
    out << "--obs-budget-mb must be >= 0\n";
    return 2;
  }
  cfg.obs_budget_mb = static_cast<std::uint64_t>(budget_mb);
  if (outputs.wants("spill")) cfg.obs_spill_dir = outputs.dir();

  // The deterministic configuration, shared by the manifest's config lines
  // and the health meta. --chunk and --jobs (and every other host-side
  // fact) never appear: no artifact may depend on the partition or the
  // thread count, so a partition-varied pair of runs diffs as identical.
  const obs::health::ReportMeta run_config = {
      {"backend", backend},
      {"servers", std::to_string(cfg.server_count)},
      {"days", std::to_string(cfg.days)},
      {"tests_per_day", std::to_string(static_cast<long>(cfg.tests_per_day))},
      {"seed", std::to_string(cfg.seed)},
  };
  obs::health::ReportMeta obs_config;
  if (cfg.sample.enabled()) obs_config.emplace_back("obs.sample", cfg.sample.describe());
  if (cfg.obs_budget_mb > 0) {
    obs_config.emplace_back("obs.budget_mb", std::to_string(cfg.obs_budget_mb));
  }
  obs::manifest::RunManifest& mf = outputs.manifest();
  mf.config = run_config;
  // The partition-invariance contract itself — constant across runs, so
  // `obs diff --expect-identical` holds across any {chunk, jobs} matrix.
  mf.config.emplace_back("executor", "chunk-stream/partition-invariant");
  mf.config.insert(mf.config.end(), obs_config.begin(), obs_config.end());
  if (!cfg.obs_spill_dir.empty()) mf.config.emplace_back("obs.spill", "on");

  // Resource self-telemetry is always collected (a few relaxed atomics per
  // test); --progress controls whether it is *surfaced* — the live stderr
  // line while running, and resource meta/metrics afterwards. Host wall/RSS
  // values never enter artifacts unless the user opts in this way.
  obs::ResourceMonitor monitor;
  cfg.resource = &monitor;
  std::atomic<bool> progress_stop{false};
  std::thread progress_thread;
  if (options.has("progress")) {
    progress_thread = std::thread([&monitor, &progress_stop] {
      while (!progress_stop.load(std::memory_order_relaxed)) {
        std::cerr << "\r" << monitor.progress_line() << std::flush;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    });
  }
  setup_scope.reset();
  // One depth-0 umbrella over the whole simulation: the nested phases
  // (workload.gen, exec.run, merge, ...) open at depth 1, and the sim's
  // internal setup/teardown — chunk-state construction and destruction —
  // stays attributed instead of leaking into a coverage gap.
  std::optional<obs::hostprof::HostScope> sim_scope;
  sim_scope.emplace(host_tl, "fleet.sim");
  const auto result = deploy::simulate_fleet(population, registry, cfg);
  sim_scope.reset();
  mf.bench = {
      {"tests_simulated", static_cast<double>(result.tests_simulated)},
      {"util_median_pct", result.summary.median},
      {"util_mean_pct", result.summary.mean},
      {"util_p99_pct", result.p99},
      {"util_max_pct", result.summary.max},
      {"share_leq_45", result.share_leq_45},
      {"overload_seconds_share", result.overload_seconds_share},
  };
  for (const auto& [stream, segments, bytes] :
       {std::tuple<std::string, std::uint64_t, std::uint64_t>{
            "trace", result.spill_trace_segments, result.spill_trace_bytes},
        {"spans", result.spill_span_segments, result.spill_span_bytes}}) {
    if (segments == 0) continue;
    mf.summaries["spill." + stream] = {
        {"segments", static_cast<double>(segments)},
        {"bytes", static_cast<double>(bytes)},
        {"ok", result.spill_ok ? 1.0 : 0.0},
    };
    outputs.add("spill." + stream, cfg.obs_spill_dir + "/" + stream + ".spill.jsonl");
  }
  int rc = 0;
  {
    const obs::hostprof::HostScope scope(host_tl, "export");
    if (progress_thread.joinable()) {
      progress_stop.store(true, std::memory_order_relaxed);
      progress_thread.join();
      std::cerr << "\r" << monitor.progress_line() << "\n";
    }
    if (options.has("progress") && hub != nullptr) {
      monitor.export_metrics(hub->metrics);
    }
    out << "fleet " << cfg.server_count << " x 100 Mbps over " << cfg.days
        << " day(s), " << result.tests_simulated << " tests (" << backend
        // Neither the chunk size nor the job count shapes the result, so
        // neither appears here: stdout stays byte-identical across the whole
        // {chunk, jobs} matrix.
        << " backend)\n"
        << "utilization: median " << result.summary.median << "%, mean "
        << result.summary.mean << "%, p99 " << result.p99 << "%, max "
        << result.summary.max << "%\n"
        << "share of busy windows <= 45%: " << 100.0 * result.share_leq_45
        << "%\n";
    rc = flush_obs(outputs, out, hub.get());
    if (rc == 0) {
      record_stage_health(hub.get(), health.get());
      obs::health::ReportMeta meta = {{"command", "fleet"}};
      meta.insert(meta.end(), run_config.begin(), run_config.end());
      meta.insert(meta.end(), obs_config.begin(), obs_config.end());
      // Data-loss accounting rides in the meta whenever loss happened.
      if (hub != nullptr) {
        for (const auto& [key, count] : {
                 std::pair<const char*, std::uint64_t>{"obs.trace_dropped",
                                                       hub->tracer.dropped()},
                 {"obs.trace_spilled", hub->tracer.spilled()},
                 {"obs.span_dropped", hub->spans.dropped()},
                 {"obs.span_spilled", hub->spans.spilled()}}) {
          if (count > 0) meta.emplace_back(key, std::to_string(count));
        }
      }
      if (options.has("progress")) monitor.append_report_meta(meta);
      rc = flush_health(options, outputs, out, health.get(), meta);
    }
  }

  // Host-time profile artifacts render last, after finish() stamps the wall:
  // they describe the run, they are never diffed, and writing them cannot
  // perturb anything deterministic.
  double wall_ms = 0.0;
  if (hostprof != nullptr) {
    hostprof->finish();
    const obs::hostprof::ProfData data = hostprof->snapshot();
    wall_ms = static_cast<double>(data.wall_ns) / 1e6;
    const bool ok =
        outputs.write("prof", out,
                      [&](std::ostream& f) { obs::hostprof::write_prof_jsonl(data, f); }) &&
        outputs.write("prof_trace", out, [&](std::ostream& f) {
          obs::hostprof::write_prof_chrome_trace(data, f);
        });
    if (!ok) return 1;
    if (options.has("profile")) {
      obs::hostprof::write_prof_report_markdown(obs::hostprof::analyze_prof(data),
                                                out);
    }
    mf.summaries["hostprof"] = obs::hostprof::summarize_for_manifest(data);
  } else {
    wall_ms = elapsed_ms(wall_start);
  }
  // The manifest renders last so it can hash every artifact the run wrote.
  // An SLO violation (rc 3) still gets a manifest — the diff side wants the
  // violating run's record most of all.
  mf.host = {
      {"jobs", static_cast<double>(cfg.jobs)},
      {"chunk", static_cast<double>(cfg.chunk)},
      {"wall_ms", wall_ms},
  };
  const int manifest_rc = outputs.write_manifest(out);
  return rc != 0 ? rc : manifest_rc;
}

int cmd_profile(std::span<const std::string> args, std::ostream& out) {
  if (args.size() < 2 || args[0] != "report" || args[1].rfind("--", 0) == 0) {
    out << "usage: swiftest-cli profile report FILE [--md OUT]\n";
    return 2;
  }
  const std::string path = args[1];
  const auto options = Options::parse(args.subspan(2), "profile", out);
  if (!options) return 2;
  if (!apply_log_level(*options, out)) return 2;

  std::string error;
  const auto data = obs::hostprof::load_prof_file(path, &error);
  if (!data) {
    out << "cannot analyze " << path << ": " << error << "\n";
    return 1;
  }
  const obs::hostprof::ProfReport report = obs::hostprof::analyze_prof(*data);
  const Render render = [&](std::ostream& f) {
    obs::hostprof::write_prof_report_markdown(report, f);
  };
  if (!options->has("md")) {
    render(out);
    return 0;
  }
  return write_file(options->get("md", ""), "profile report", out, render) ? 0 : 1;
}

/// `obs diff A B`: semantic cross-run comparison of two run manifests.
/// Exit codes: 0 no gated difference, 1 unreadable manifest, 2 usage,
/// 4 gated regression (or any semantic difference under --expect-identical).
int cmd_obs(std::span<const std::string> args, std::ostream& out) {
  if (args.size() < 3 || args[0] != "diff" || args[1].rfind("--", 0) == 0 ||
      args[2].rfind("--", 0) == 0) {
    out << "usage: swiftest-cli obs diff MANIFEST_A MANIFEST_B [--json OUT]\n"
           "       [--md OUT] [--expect-identical] [--tolerance R]\n"
           "       [--no-artifacts]\n";
    return 2;
  }
  const std::string path_a = args[1];
  const std::string path_b = args[2];
  const auto options = Options::parse(args.subspan(3), "obs", out);
  if (!options) return 2;
  if (!apply_log_level(*options, out)) return 2;

  std::string error;
  const auto manifest_a = obs::manifest::load_manifest_file(path_a, &error);
  if (!manifest_a) {
    out << "cannot load " << path_a << ": " << error << "\n";
    return 1;
  }
  const auto manifest_b = obs::manifest::load_manifest_file(path_b, &error);
  if (!manifest_b) {
    out << "cannot load " << path_b << ": " << error << "\n";
    return 1;
  }

  obs::diff::DiffOptions diff_options;
  diff_options.expect_identical = options->has("expect-identical");
  diff_options.rel_tolerance =
      options->get_double("tolerance", diff_options.rel_tolerance);
  diff_options.load_artifacts = !options->has("no-artifacts");
  const obs::diff::DiffReport report =
      obs::diff::diff_runs(*manifest_a, *manifest_b, diff_options, path_a, path_b);

  if (write_json_md(
          *options, "diff", out,
          [&](std::ostream& f) { obs::diff::write_diff_json(report, f); },
          [&](std::ostream& f) { obs::diff::write_diff_markdown(report, f); }) != 0) {
    return 1;
  }

  const bool failed = diff_options.expect_identical ? !report.identical
                                                    : report.regressions > 0;
  out << "diff: "
      << (report.identical
              ? "identical"
              : (report.regressions > 0 ? "regressed" : "within tolerance"));
  if (report.has_stage_attribution && !report.top_stage.empty()) {
    out << "; largest stage delta: " << report.top_stage;
  }
  out << "\n";
  if (failed) {
    out << "DIFF REGRESSION: " << report.regressions
        << " gated difference(s) between " << path_a << " and " << path_b
        << "\n";
    return 4;
  }
  return 0;
}

}  // namespace

int run_cli(std::span<const std::string> args, std::ostream& out) {
  if (args.empty() || args[0] == "--help" || args[0] == "help") {
    out << usage();
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  if (!kCommandKeys.contains(command) && command != "run") {
    out << "unknown command: " << command << "\n" << usage();
    return 2;
  }
  try {
    if (command == "trace") return cmd_trace(args.subspan(1), out);
    if (command == "profile") return cmd_profile(args.subspan(1), out);
    if (command == "obs") return cmd_obs(args.subspan(1), out);
    const auto options = Options::parse(args.subspan(1), command, out);
    if (!options) return 2;
    if (!apply_log_level(*options, out)) return 2;
    if (command == "campaign") return cmd_campaign(*options, out);
    if (command == "report") return cmd_report(*options, out);
    if (command == "fit") return cmd_fit(*options, out);
    if (command == "plan") return cmd_plan(*options, out);
    if (command == "fleet") return cmd_fleet(*options, out);
    return cmd_test(*options, out);  // test or its alias run
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace swiftest::cli
