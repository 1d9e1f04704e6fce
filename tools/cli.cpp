#include "cli.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
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

const std::string kUsage = std::string(
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
    "           --jobs replays chunks on up to N work-stealing worker\n"
    "           threads (0 = hardware concurrency). Every artifact is a pure\n"
    "           function of (config, seed): neither flag changes any output.\n"
    "  trace    analyze FILE [--json OUT] [--md OUT]\n"
    "           critical-path latency attribution of a span JSON file\n"
    "  profile  report FILE [--md OUT]\n"
    "           parallel efficiency, serial fraction, and Amdahl attribution\n"
    "           of a --prof-out host-time profile\n"
    "  obs      diff MANIFEST_A MANIFEST_B [--json OUT] [--md OUT]\n"
    "           [--expect-identical] [--tolerance R] [--no-artifacts]\n"
    "           semantic cross-run diff of two run manifests (and the\n"
    "           artifacts they point at); exits 4 on a gated regression\n"
    "\n"
    "run manifests (test, run, fleet):\n"
    "  --manifest-out FILE     write a RunManifest (JSONL): resolved config,\n"
    "                          build sha, per-artifact content hashes and row\n"
    "                          counts, per-layer summaries, headline bench\n"
    "                          values, and SLO verdicts — the input of\n"
    "                          `obs diff`. For fleet this is on by default\n"
    "                          whenever the run writes an artifact (the\n"
    "                          manifest lands next to the first artifact as\n"
    "                          <artifact>.manifest.jsonl)\n"
    "  --no-manifest           disable the default fleet manifest\n"
    "\n"
    "exit codes:\n"
    "  0 success   1 file/runtime error   2 usage error\n"
    "  3 SLO violation (--slo)   4 diff regression (obs diff)\n"
    "\n"
    "observability (test, run, fleet):\n"
    "  --trace-out FILE        write a Chrome trace_event JSON trace\n"
    "  --trace-jsonl FILE      write the trace as compact JSONL instead\n"
    "  --metrics-out FILE      write a metrics snapshot as JSON\n"
    "  --trace-categories L    comma list: ") + obs::kCategoryListCsv + " (default all)\n"
    "  --spans-out FILE        write the causal span tree as JSON (input of\n"
    "                          `trace analyze`)\n"
    "  --attribution-md FILE   write the critical-path attribution as markdown\n"
    "\n"
    "bounded observability (fleet):\n"
    "  --obs-sample 1/N        deterministically retain 1-in-N tests' trace\n"
    "                          events and spans, keyed on the test identity —\n"
    "                          the sampled artifacts are byte-identical for\n"
    "                          every --chunk/--jobs (both backends)\n"
    "  --obs-budget-mb N       total observability memory budget; the run\n"
    "                          plans a deterministic degradation schedule up\n"
    "                          front — the sampling rate halves (recorded) at\n"
    "                          checkpoints where the modeled footprint would\n"
    "                          exceed the budget, instead of OOMing\n"
    "  --obs-spill-dir DIR     rotate full trace rings / span stores into\n"
    "                          JSONL segments under DIR instead of dropping\n"
    "  --progress              live test/chunk/RSS progress line on stderr\n"
    "                          (host telemetry; never part of artifacts)\n"
    "\n"
    "host-time profiling (fleet):\n"
    "  --prof-out FILE         write per-thread phase timelines and worker\n"
    "                          busy/idle accounting as PROF JSONL (the input\n"
    "                          of `profile report`); host time only — the\n"
    "                          deterministic artifacts are byte-identical\n"
    "                          with or without this flag\n"
    "  --prof-trace FILE       write the host-time timeline as Chrome\n"
    "                          trace_event JSON, one track per worker thread\n"
    "\n"
    "logging (all commands):\n"
    "  --log-level L           debug|info|warn|error (default warn)\n"
    "\n"
    "health / SLO (test, run, fleet):\n"
    "  --health-out FILE       write the health snapshot (aggregated duration,\n"
    "                          data usage, deviation, egress utilization) as JSON\n"
    "  --report-md FILE        render the health report as markdown\n"
    "  --slo FILE              evaluate an SLO spec (JSON); any violation makes\n"
    "                          the process exit 3\n"
    "  --profile               print the host-time profile report (as\n"
    "                          `profile report` renders it) after the run\n";

/// Minimal --key value parser; flags without values map to "true".
class Options {
 public:
  static std::optional<Options> parse(std::span<const std::string> args,
                                      std::ostream& out) {
    Options options;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) != 0) {
        out << "unexpected argument: " << arg << "\n";
        return std::nullopt;
      }
      const std::string key = arg.substr(2);
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

/// Builds an obs::Hub when any trace/metrics/span output flag is present;
/// null hub (and success) otherwise. The tracer records only when a trace
/// output (--trace-out / --trace-jsonl) is requested — a metrics- or
/// spans-only run pays nothing for trace events — and --trace-categories
/// narrows it further. Returns false on a bad --trace-categories list —
/// validated unconditionally, so a typo'd category fails the run loudly
/// even when no trace output is requested.
bool setup_obs(const Options& options, std::ostream& out,
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
  const bool wants_trace = options.has("trace-out") || options.has("trace-jsonl");
  if (!wants_trace && !options.has("metrics-out") && !options.has("spans-out") &&
      !options.has("attribution-md")) {
    return true;
  }
  hub = std::make_unique<obs::Hub>();
  hub->tracer.set_category_mask(wants_trace ? mask.value_or(obs::kAllCategories) : 0);
  return true;
}

/// Registers an artifact the run just wrote (content hash, bytes, rows) in
/// the manifest. A manifest-side read failure warns on stderr instead of
/// failing the run: the artifact itself landed fine.
void manifest_add_artifact(obs::manifest::RunManifest* manifest,
                           const std::string& name, const std::string& path) {
  if (manifest == nullptr) return;
  std::string error;
  auto record = obs::manifest::artifact_from_file(name, path, &error);
  if (!record) {
    std::cerr << "warning: manifest: " << error << "\n";
    return;
  }
  manifest->artifacts.push_back(std::move(*record));
}

/// Writes the manifest file; returns 0 or 1 (unwritable path).
int write_manifest_file(const std::string& path,
                        const obs::manifest::RunManifest& manifest,
                        std::ostream& out) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    out << "cannot write " << path << "\n";
    return 1;
  }
  obs::manifest::write_manifest_jsonl(manifest, file);
  out << "manifest: " << path << "\n";
  return 0;
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

/// True when the run opted into any of the bounded-observability machinery.
/// Drop accounting lands in artifacts only then: golden pre-sampling runs
/// (which legitimately wrap their rings) must stay byte-identical.
bool bounded_obs_requested(const Options& options) {
  return options.has("obs-sample") || options.has("obs-budget-mb") ||
         options.has("obs-spill-dir") || options.has("progress");
}

/// Writes whichever trace/metrics outputs were requested. Returns a nonzero
/// exit code if a file cannot be opened. Data loss is surfaced before the
/// artifacts render: a stderr warning always, plus — for bounded-obs runs —
/// only-nonzero obs.trace_dropped / obs.span_dropped counters in the metrics
/// snapshot, so a silently-wrapped ring can't masquerade as a complete trace.
int flush_obs(const Options& options, std::ostream& out, obs::Hub* hub,
              obs::manifest::RunManifest* manifest = nullptr) {
  if (hub == nullptr) return 0;
  if (hub->tracer.dropped() > 0) {
    std::cerr << "warning: trace ring dropped " << hub->tracer.dropped()
              << " events (use --obs-sample or --obs-spill-dir)\n";
    if (bounded_obs_requested(options)) {
      hub->metrics.counter("obs.trace_dropped").inc(hub->tracer.dropped());
    }
  }
  if (hub->spans.dropped() > 0) {
    std::cerr << "warning: span store dropped " << hub->spans.dropped()
              << " spans (use --obs-sample or --obs-spill-dir)\n";
    if (bounded_obs_requested(options)) {
      hub->metrics.counter("obs.span_dropped").inc(hub->spans.dropped());
    }
  }
  auto open = [&out](const std::string& path, std::ofstream& file) {
    file.open(path, std::ios::binary | std::ios::trunc);
    if (!file) out << "cannot write " << path << "\n";
    return static_cast<bool>(file);
  };
  if (options.has("trace-out")) {
    std::ofstream file;
    if (!open(options.get("trace-out", ""), file)) return 1;
    obs::write_chrome_trace(hub->tracer, file);
    file.close();
    manifest_add_artifact(manifest, "trace_chrome", options.get("trace-out", ""));
    out << "trace: " << options.get("trace-out", "") << " ("
        << hub->tracer.events().size() << " events";
    if (hub->tracer.dropped() > 0) out << ", " << hub->tracer.dropped() << " dropped";
    out << ")\n";
  }
  if (options.has("trace-jsonl")) {
    std::ofstream file;
    if (!open(options.get("trace-jsonl", ""), file)) return 1;
    obs::write_trace_jsonl(hub->tracer, file);
    file.close();
    manifest_add_artifact(manifest, "trace_jsonl", options.get("trace-jsonl", ""));
  }
  if (options.has("metrics-out")) {
    std::ofstream file;
    if (!open(options.get("metrics-out", ""), file)) return 1;
    obs::write_metrics_json(hub->metrics.snapshot(), file);
    file.close();
    manifest_add_artifact(manifest, "metrics", options.get("metrics-out", ""));
    out << "metrics: " << options.get("metrics-out", "") << "\n";
  }
  if (options.has("spans-out")) {
    std::ofstream file;
    if (!open(options.get("spans-out", ""), file)) return 1;
    obs::span::write_spans_json(hub->spans, file);
    file.close();
    manifest_add_artifact(manifest, "spans", options.get("spans-out", ""));
    out << "spans: " << options.get("spans-out", "") << " (" << hub->spans.size()
        << " spans";
    if (hub->spans.dropped() > 0) out << ", " << hub->spans.dropped() << " dropped";
    out << ")\n";
  }
  if (options.has("attribution-md")) {
    std::ofstream file;
    if (!open(options.get("attribution-md", ""), file)) return 1;
    const auto report = obs::span::analyze_spans(obs::span::to_span_data(hub->spans));
    obs::span::write_attribution_markdown(report, file);
    file.close();
    manifest_add_artifact(manifest, "attribution_md",
                          options.get("attribution-md", ""));
    out << "attribution: " << options.get("attribution-md", "") << " ("
        << report.traces.size() << " traces)\n";
  }
  if (manifest != nullptr) {
    manifest->summaries["trace"] = obs::summarize_for_manifest(hub->tracer);
    manifest->summaries["metrics"] =
        obs::summarize_for_manifest(hub->metrics.snapshot());
    manifest->summaries["spans"] = obs::span::summarize_for_manifest(hub->spans);
  }
  return 0;
}

/// True when any health/SLO output was requested (a HealthMonitor is only
/// built — and the run only pays for aggregation — in that case).
bool wants_health(const Options& options) {
  return options.has("health-out") || options.has("report-md") || options.has("slo");
}

/// Writes the requested health artifacts and evaluates the SLO spec, if any.
/// Returns 0 on success, 1 on an unwritable file, 2 on a malformed spec, and
/// 3 when at least one objective is violated — the CI gate's exit code.
int flush_health(const Options& options, std::ostream& out,
                 const obs::health::HealthMonitor* health,
                 const obs::health::ReportMeta& meta,
                 obs::manifest::RunManifest* manifest = nullptr) {
  if (health == nullptr) return 0;
  const obs::health::HealthSnapshot snapshot = health->snapshot();
  if (manifest != nullptr) {
    manifest->summaries["health"] = obs::health::summarize_for_manifest(snapshot);
  }

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

  auto open = [&out](const std::string& path, std::ofstream& file) {
    file.open(path, std::ios::binary | std::ios::trunc);
    if (!file) out << "cannot write " << path << "\n";
    return static_cast<bool>(file);
  };
  if (options.has("health-out")) {
    std::ofstream file;
    if (!open(options.get("health-out", ""), file)) return 1;
    obs::health::write_health_json(snapshot, meta, eval_ptr, file);
    file.close();
    manifest_add_artifact(manifest, "health", options.get("health-out", ""));
    out << "health: " << options.get("health-out", "") << "\n";
  }
  if (options.has("report-md")) {
    std::ofstream file;
    if (!open(options.get("report-md", ""), file)) return 1;
    obs::health::write_health_markdown(snapshot, meta, eval_ptr, file);
    file.close();
    manifest_add_artifact(manifest, "report_md", options.get("report-md", ""));
    out << "report: " << options.get("report-md", "") << "\n";
  }
  if (evaluation && manifest != nullptr) {
    for (const auto& r : evaluation->results) {
      obs::manifest::SloVerdict verdict;
      verdict.name = r.spec.name;
      verdict.dimension = r.dimension;
      verdict.stat = r.spec.stat;
      verdict.observed = r.observed;
      verdict.status = slo_status_name(r.status);
      manifest->slos.push_back(std::move(verdict));
    }
  }
  if (evaluation) {
    for (const auto& r : evaluation->results) {
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
  const auto options = Options::parse(args.subspan(2), out);
  if (!options) return 2;
  if (!apply_log_level(*options, out)) return 2;

  std::string error;
  const auto spans = obs::span::load_spans_file(path, &error);
  if (!spans) {
    out << "cannot analyze " << path << ": " << error << "\n";
    return 1;
  }
  const obs::span::AttributionReport report = obs::span::analyze_spans(*spans);

  auto open = [&out](const std::string& file_path, std::ofstream& file) {
    file.open(file_path, std::ios::binary | std::ios::trunc);
    if (!file) out << "cannot write " << file_path << "\n";
    return static_cast<bool>(file);
  };
  if (options->has("json")) {
    std::ofstream file;
    if (!open(options->get("json", ""), file)) return 1;
    obs::span::write_attribution_json(report, file);
    out << "attribution json: " << options->get("json", "") << "\n";
  }
  if (options->has("md")) {
    std::ofstream file;
    if (!open(options->get("md", ""), file)) return 1;
    obs::span::write_attribution_markdown(report, file);
    out << "attribution md: " << options->get("md", "") << "\n";
  }
  if (!options->has("json") && !options->has("md")) {
    obs::span::write_attribution_markdown(report, out);
  }
  return 0;
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
  std::unique_ptr<obs::Hub> hub;
  if (!setup_obs(options, out, hub)) return 2;
  obs::manifest::RunManifest manifest;
  obs::manifest::RunManifest* mf =
      options.has("manifest-out") ? &manifest : nullptr;
  if (mf != nullptr) {
    manifest.command = "test";
    manifest.build = SWIFTEST_GIT_SHA;
    manifest.config = {
        {"tech", options.get("tech", "5g")},
        {"rate_mbps", options.get("rate", "")},
        {"seed", std::to_string(options.get_int("seed", 42))},
        {"wire", options.has("wire") ? "true" : "false"},
    };
  }
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
  if (mf != nullptr) {
    manifest.bench = {
        {"estimate_mbps", result.bandwidth_mbps},
        {"probe_time_s", core::to_seconds(result.probe_duration)},
        {"data_mb", result.data_used.megabytes()},
        {"servers_used", static_cast<double>(result.connections_used)},
    };
  }
  const int obs_rc = flush_obs(options, out, hub.get(), mf);
  if (obs_rc != 0) return obs_rc;

  int health_rc = 0;
  if (wants_health(options)) {
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
    const obs::health::ReportMeta meta = {
        {"command", "test"},
        {"tech", options.get("tech", "5g")},
        {"rate_mbps", options.get("rate", "")},
        {"seed", std::to_string(options.get_int("seed", 42))},
    };
    health_rc = flush_health(options, out, &health, meta, mf);
  }
  if (hostprof != nullptr) {
    hostprof->finish();
    obs::hostprof::write_prof_report_markdown(
        obs::hostprof::analyze_prof(hostprof->snapshot()), out);
  }
  if (mf != nullptr) {
    manifest.host = {
        {"wall_ms",
         static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now() - wall_start)
                 .count()) /
             1e6},
    };
    const int manifest_rc =
        write_manifest_file(options.get("manifest-out", ""), manifest, out);
    if (health_rc == 0) health_rc = manifest_rc;
  }
  return health_rc;
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

/// Fleet manifests are on by default whenever the run writes any artifact:
/// the manifest lands next to the run's first artifact as
/// <artifact>.manifest.jsonl. --manifest-out overrides the path,
/// --no-manifest disables. Runs that write no artifact get no default
/// manifest (nothing to hash, and a bare `fleet` should not litter the cwd).
std::string resolve_fleet_manifest_path(const Options& options) {
  if (options.has("no-manifest")) return "";
  if (options.has("manifest-out")) return options.get("manifest-out", "");
  static constexpr const char* kAnchors[] = {
      "health-out", "trace-jsonl", "trace-out",      "metrics-out",
      "spans-out",  "report-md",   "attribution-md"};
  for (const char* anchor : kAnchors) {
    if (options.has(anchor)) return options.get(anchor, "") + ".manifest.jsonl";
  }
  return "";
}

int cmd_fleet(const Options& options, std::ostream& out) {
  const auto wall_start = std::chrono::steady_clock::now();
  // The host-time profiler spans the whole command — population draw through
  // artifact export — so the attribution covers (nearly) all of wall-clock.
  std::unique_ptr<obs::hostprof::HostProfiler> hostprof;
  if (options.has("prof-out") || options.has("prof-trace") ||
      options.has("profile")) {
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
  if (!setup_obs(options, out, hub)) return 2;
  std::unique_ptr<obs::health::HealthMonitor> health;
  if (wants_health(options)) {
    health = std::make_unique<obs::health::HealthMonitor>();
  }
  deploy::FleetSimConfig cfg;
  cfg.obs = hub.get();
  cfg.health = health.get();
  cfg.hostprof = hostprof.get();
  cfg.tests_per_day = options.get_double("tests-per-day", 10'000.0);
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
  cfg.obs_spill_dir = options.get("obs-spill-dir", "");

  const std::string manifest_path = resolve_fleet_manifest_path(options);
  obs::manifest::RunManifest manifest;
  obs::manifest::RunManifest* mf = manifest_path.empty() ? nullptr : &manifest;
  if (mf != nullptr) {
    manifest.command = "fleet";
    manifest.build = SWIFTEST_GIT_SHA;
    // Deterministic configuration only: --chunk and --jobs (and every other
    // host-side fact) ride in the "host" lines, so a partition-varied pair
    // of runs diffs as identical. The "executor" entry records the
    // partition-invariance contract itself — constant across runs, so
    // `obs diff --expect-identical` holds across any {chunk, jobs} matrix.
    manifest.config = {
        {"backend", backend},
        {"servers", std::to_string(cfg.server_count)},
        {"days", std::to_string(cfg.days)},
        {"tests_per_day", std::to_string(static_cast<long>(cfg.tests_per_day))},
        {"seed", std::to_string(cfg.seed)},
        {"executor", "chunked-work-stealing/partition-invariant"},
    };
    if (cfg.sample.enabled()) {
      manifest.config.emplace_back("obs.sample", cfg.sample.describe());
    }
    if (cfg.obs_budget_mb > 0) {
      manifest.config.emplace_back("obs.budget_mb",
                                   std::to_string(cfg.obs_budget_mb));
    }
    if (!cfg.obs_spill_dir.empty()) {
      manifest.config.emplace_back("obs.spill", "on");
    }
  }

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
  if (mf != nullptr) {
    manifest.bench = {
        {"tests_simulated", static_cast<double>(result.tests_simulated)},
        {"util_median_pct", result.summary.median},
        {"util_mean_pct", result.summary.mean},
        {"util_p99_pct", result.p99},
        {"util_max_pct", result.summary.max},
        {"share_leq_45", result.share_leq_45},
        {"overload_seconds_share", result.overload_seconds_share},
    };
    if (!cfg.obs_spill_dir.empty()) {
      if (result.spill_trace_segments > 0) {
        manifest.summaries["spill.trace"] = {
            {"segments", static_cast<double>(result.spill_trace_segments)},
            {"bytes", static_cast<double>(result.spill_trace_bytes)},
            {"ok", result.spill_ok ? 1.0 : 0.0},
        };
        manifest_add_artifact(mf, "spill.trace",
                              cfg.obs_spill_dir + "/trace.spill.jsonl");
      }
      if (result.spill_span_segments > 0) {
        manifest.summaries["spill.spans"] = {
            {"segments", static_cast<double>(result.spill_span_segments)},
            {"bytes", static_cast<double>(result.spill_span_bytes)},
            {"ok", result.spill_ok ? 1.0 : 0.0},
        };
        manifest_add_artifact(mf, "spill.spans",
                              cfg.obs_spill_dir + "/spans.spill.jsonl");
      }
    }
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
    rc = flush_obs(options, out, hub.get(), mf);
    if (rc == 0) {
      record_stage_health(hub.get(), health.get());
      obs::health::ReportMeta meta = {
          {"command", "fleet"},
          {"backend", backend},
          {"servers", std::to_string(cfg.server_count)},
          {"days", std::to_string(cfg.days)},
          {"tests_per_day", std::to_string(static_cast<long>(cfg.tests_per_day))},
          {"seed", std::to_string(cfg.seed)},
      };
      // --chunk and --jobs never appear: no artifact may depend on the
      // partition or the thread count.
      if (cfg.sample.enabled()) {
        meta.emplace_back("obs.sample", cfg.sample.describe());
      }
      if (cfg.obs_budget_mb > 0) {
        meta.emplace_back("obs.budget_mb", std::to_string(cfg.obs_budget_mb));
      }
      // Data-loss accounting rides in the meta only for bounded-obs runs and
      // only when loss happened, keeping legacy reports byte-identical.
      if (hub != nullptr && bounded_obs_requested(options)) {
        if (hub->tracer.dropped() > 0) {
          meta.emplace_back("obs.trace_dropped",
                            std::to_string(hub->tracer.dropped()));
        }
        if (hub->tracer.spilled() > 0) {
          meta.emplace_back("obs.trace_spilled",
                            std::to_string(hub->tracer.spilled()));
        }
        if (hub->spans.dropped() > 0) {
          meta.emplace_back("obs.span_dropped",
                            std::to_string(hub->spans.dropped()));
        }
        if (hub->spans.spilled() > 0) {
          meta.emplace_back("obs.span_spilled",
                            std::to_string(hub->spans.spilled()));
        }
      }
      if (options.has("progress")) monitor.append_report_meta(meta);
      rc = flush_health(options, out, health.get(), meta, mf);
    }
  }

  // Host-time profile artifacts render last, after finish() stamps the wall:
  // they describe the run, they are never diffed, and writing them cannot
  // perturb anything deterministic.
  std::uint64_t wall_ns = 0;
  if (hostprof != nullptr) {
    hostprof->finish();
    const obs::hostprof::ProfData data = hostprof->snapshot();
    wall_ns = data.wall_ns;
    auto open = [&out](const std::string& path, std::ofstream& file) {
      file.open(path, std::ios::binary | std::ios::trunc);
      if (!file) out << "cannot write " << path << "\n";
      return static_cast<bool>(file);
    };
    if (options.has("prof-out")) {
      std::ofstream file;
      if (!open(options.get("prof-out", ""), file)) return 1;
      obs::hostprof::write_prof_jsonl(data, file);
      file.close();
      manifest_add_artifact(mf, "prof", options.get("prof-out", ""));
      out << "profile: " << options.get("prof-out", "") << " ("
          << data.timelines.size() << " timelines)\n";
    }
    if (options.has("prof-trace")) {
      std::ofstream file;
      if (!open(options.get("prof-trace", ""), file)) return 1;
      obs::hostprof::write_prof_chrome_trace(data, file);
      file.close();
      manifest_add_artifact(mf, "prof_trace", options.get("prof-trace", ""));
      out << "profile trace: " << options.get("prof-trace", "") << "\n";
    }
    if (options.has("profile")) {
      obs::hostprof::write_prof_report_markdown(obs::hostprof::analyze_prof(data),
                                                out);
    }
    if (mf != nullptr) {
      manifest.summaries["hostprof"] = obs::hostprof::summarize_for_manifest(data);
    }
  } else {
    wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());
  }
  // The manifest renders last so it can hash every artifact the run wrote.
  // An SLO violation (rc 3) still gets a manifest — the diff side wants the
  // violating run's record most of all.
  if (mf != nullptr) {
    manifest.host = {
        {"jobs", static_cast<double>(cfg.jobs)},
        {"chunk", static_cast<double>(cfg.chunk)},
        {"wall_ms", static_cast<double>(wall_ns) / 1e6},
    };
    const int manifest_rc = write_manifest_file(manifest_path, manifest, out);
    if (rc == 0) rc = manifest_rc;
  }
  return rc;
}

int cmd_profile(std::span<const std::string> args, std::ostream& out) {
  if (args.size() < 2 || args[0] != "report" || args[1].rfind("--", 0) == 0) {
    out << "usage: swiftest-cli profile report FILE [--md OUT]\n";
    return 2;
  }
  const std::string path = args[1];
  const auto options = Options::parse(args.subspan(2), out);
  if (!options) return 2;
  if (!apply_log_level(*options, out)) return 2;

  std::string error;
  const auto data = obs::hostprof::load_prof_file(path, &error);
  if (!data) {
    out << "cannot analyze " << path << ": " << error << "\n";
    return 1;
  }
  const obs::hostprof::ProfReport report = obs::hostprof::analyze_prof(*data);
  if (options->has("md")) {
    std::ofstream file(options->get("md", ""), std::ios::binary | std::ios::trunc);
    if (!file) {
      out << "cannot write " << options->get("md", "") << "\n";
      return 1;
    }
    obs::hostprof::write_prof_report_markdown(report, file);
    out << "profile report: " << options->get("md", "") << "\n";
  } else {
    obs::hostprof::write_prof_report_markdown(report, out);
  }
  return 0;
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
  const auto options = Options::parse(args.subspan(3), out);
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

  auto open = [&out](const std::string& file_path, std::ofstream& file) {
    file.open(file_path, std::ios::binary | std::ios::trunc);
    if (!file) out << "cannot write " << file_path << "\n";
    return static_cast<bool>(file);
  };
  if (options->has("json")) {
    std::ofstream file;
    if (!open(options->get("json", ""), file)) return 1;
    obs::diff::write_diff_json(report, file);
    out << "diff json: " << options->get("json", "") << "\n";
  }
  if (options->has("md")) {
    std::ofstream file;
    if (!open(options->get("md", ""), file)) return 1;
    obs::diff::write_diff_markdown(report, file);
    out << "diff md: " << options->get("md", "") << "\n";
  }
  if (!options->has("json") && !options->has("md")) {
    obs::diff::write_diff_markdown(report, out);
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
    out << kUsage;
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];
  if (command == "trace" || command == "profile" || command == "obs") {
    try {
      if (command == "trace") return cmd_trace(args.subspan(1), out);
      if (command == "profile") return cmd_profile(args.subspan(1), out);
      return cmd_obs(args.subspan(1), out);
    } catch (const std::exception& e) {
      out << "error: " << e.what() << "\n";
      return 1;
    }
  }
  const auto options = Options::parse(args.subspan(1), out);
  if (!options) return 2;
  if (!apply_log_level(*options, out)) return 2;

  try {
    if (command == "campaign") return cmd_campaign(*options, out);
    if (command == "report") return cmd_report(*options, out);
    if (command == "test" || command == "run") return cmd_test(*options, out);
    if (command == "fit") return cmd_fit(*options, out);
    if (command == "plan") return cmd_plan(*options, out);
    if (command == "fleet") return cmd_fleet(*options, out);
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  }
  out << "unknown command: " << command << "\n" << kUsage;
  return 2;
}

}  // namespace swiftest::cli
