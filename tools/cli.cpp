#include "cli.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
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
      "  campaign --tests N [--year 2020|2021] [--seed S] --out FILE\n"
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
      "           semantic cross-run diff of two run manifests: their layer\n"
      "           summaries, plus a stage attribution read from both runs'\n"
      "           spans (--no-artifacts skips that read); exits 4 on a\n"
      "           gated regression\n"
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
      "  --progress              live test/chunk/RSS progress line on stderr\n"
      "                          (host telemetry; never part of artifacts)\n"
      "  A fleet streams its trace and spans into their files in canonical\n"
      "  order as chunks commit: every recorded event and span, none dropped\n"
      "  and none kept past its chunk's commit.\n"
      "  A single test's trace ring hands each full run of 262144 events to\n"
      "  the files, so its trace is whole too; dropped spans are counted in\n"
      "  the metrics (obs.span_dropped) and the health meta.\n"
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
      "obs-sample", "progress", "trace-categories", "slo", "profile", "obs-dir", "obs"}},
    {"trace", {"json", "md"}},
    {"profile", {"md"}},
    {"obs", {"json", "md", "expect-identical", "tolerance", "no-artifacts"}},
};

// Upper bounds of the numeric flags: far past any real run, low enough that
// a typo cannot ask for an unbounded allocation or thread count.
constexpr std::uint64_t kSeedMax = std::numeric_limits<std::uint64_t>::max();
constexpr int kMaxCount = 1'000'000;
constexpr std::size_t kMaxJobs = 1024;
constexpr double kMaxTestsPerDay = 1e9;

/// A range bound as a person writes it: 1e9, not 1e+09.
std::string bound_text(double bound) {
  std::ostringstream text;
  text << bound;
  std::string s = text.str();
  if (const auto e = s.find("e+"); e != std::string::npos) {
    s.erase(e + 1, 1);
    while (s.size() > e + 2 && s[e + 1] == '0') s.erase(e + 1, 1);
  }
  return s;
}

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
  /// The value of numeric flag --key, or `fallback` when it is absent. The
  /// parse is strict: the whole token must convert (std::from_chars, so no
  /// sign on an unsigned type), and the value must be finite and in
  /// [lo, hi]. Anything else prints why, naming the flag, and returns
  /// nullopt — every caller then exits 2. `note` is appended to the message.
  template <typename T>
  [[nodiscard]] std::optional<T> number(const std::string& key, T fallback, T lo, T hi,
                                        std::ostream& out,
                                        std::string_view note = {}) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    // NaN fails both bounds and infinities fail one, so finiteness follows.
    if (ec == std::errc() && end == text.data() + text.size() && value >= lo &&
        value <= hi) {
      return value;
    }
    out << "--" << key << " must be ";
    if constexpr (std::is_integral_v<T>) {
      out << "an integer >= " << lo;
      if (hi != std::numeric_limits<T>::max()) out << " and <= " << hi;
    } else {
      out << "a number in [" << bound_text(lo) << ", " << bound_text(hi) << "]";
    }
    out << " (got '" << text << "')" << note << "\n";
    return std::nullopt;
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
std::string count_note(std::uint64_t kept, const char* unit, std::uint64_t dropped) {
  std::string note = " (" + std::to_string(kept) + " " + unit;
  if (dropped > 0) note += ", " + std::to_string(dropped) + " dropped";
  return note + ")";
}

/// An artifact file written and digested on its own thread: a writer hands
/// it bytes through the std::streambuf interface and goes on producing
/// while full blocks are hashed for the manifest and written out in order.
/// At most kQueued blocks wait, so memory stays bounded.
class BackgroundFile : public std::streambuf {
 public:
  ~BackgroundFile() override { close(); }

  bool open(const std::string& path) {
    file_.open(path, std::ios::binary | std::ios::trunc);
    if (!file_) return false;
    thread_ = std::thread([this] { run(); });
    return true;
  }
  [[nodiscard]] bool is_open() const { return thread_.joinable(); }
  [[nodiscard]] std::ostream* stream() { return is_open() ? &stream_ : nullptr; }

  /// Writes what is left and closes the file; false if any write failed.
  bool close() {
    if (!is_open()) return ok_;
    hand_off();
    {
      const std::lock_guard lock(mutex_);
      closing_ = true;
    }
    changed_.notify_all();
    thread_.join();
    file_.close();
    return ok_ = ok_ && static_cast<bool>(file_);
  }

  [[nodiscard]] const obs::manifest::ArtifactDigest& digest() const { return digest_; }

 protected:
  std::streamsize xsputn(const char* data, std::streamsize count) override {
    block_.append(data, static_cast<std::size_t>(count));
    if (block_.size() >= kBlockBytes) hand_off();
    return count;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      block_ += traits_type::to_char_type(c);
    }
    return traits_type::not_eof(c);
  }

 private:
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 20;
  static constexpr std::size_t kQueued = 8;

  void hand_off() {
    if (block_.empty()) return;
    std::unique_lock lock(mutex_);
    changed_.wait(lock, [this] { return queue_.size() < kQueued; });
    queue_.push_back(std::move(block_));
    block_.clear();
    lock.unlock();
    changed_.notify_all();
  }

  void run() {
    for (;;) {
      std::unique_lock lock(mutex_);
      changed_.wait(lock, [this] { return !queue_.empty() || closing_; });
      if (queue_.empty()) return;
      std::string block = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      changed_.notify_all();
      digest_.update(block);
      file_.write(block.data(), static_cast<std::streamsize>(block.size()));
      if (!file_) ok_ = false;
    }
  }

  std::ofstream file_;
  std::ostream stream_{this};
  std::string block_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable changed_;
  std::deque<std::string> queue_;
  bool closing_ = false;
  bool ok_ = true;  // written by the thread, read after the join
  obs::manifest::ArtifactDigest digest_;
};

/// One `test` or `fleet` run from its --obs/--slo/--profile flags to its
/// manifest. init() builds the parts those flags ask for — the hub, the
/// health monitor, the host profiler — and opens the trace and span files;
/// the command runs its simulation against them and fills in its config
/// lines and bench values; finish() writes the rest. Every artifact lands
/// in DIR under its kObsArtifacts file name through a BackgroundFile, so
/// the manifest records the digest taken as the bytes went out, and is
/// echoed as `name: path`. DIR/manifest.jsonl is written whenever DIR is
/// given.
class RunOutputs {
 public:
  /// Validates --obs-dir/--obs against what `command` ("test" or "fleet")
  /// can produce, creates DIR and builds the run's parts. Returns 0, 2 on a
  /// usage error, or 1 when DIR or a trace file cannot be created.
  int init(const Options& options, const std::string& command, std::ostream& out) {
    wall_start_ = std::chrono::steady_clock::now();
    manifest_.command = command;
    manifest_.build = SWIFTEST_GIT_SHA;
    fleet_ = command == "fleet";
    if (options.has("obs-dir") != options.has("obs")) {
      out << "--obs-dir and --obs go together (--obs names: " << obs_names(fleet_)
          << ")\n";
      return 2;
    }
    if (options.has("obs")) {
      std::istringstream list(options.get("obs", ""));
      for (std::string name; std::getline(list, name, ',');) {
        const auto* it = std::find_if(
            std::begin(kObsArtifacts), std::end(kObsArtifacts),
            [&](const ObsArtifact& a) { return a.name == name && (fleet_ || !a.fleet_only); });
        if (it == std::end(kObsArtifacts)) {
          out << "unknown --obs name '" << name << "' for " << command
              << " (valid: " << obs_names(fleet_) << ")\n";
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
    }
    // --trace-categories is validated even when no trace is requested, so a
    // typo'd category fails the run loudly.
    std::optional<std::uint32_t> mask;
    if (options.has("trace-categories")) {
      std::string bad_token;
      mask = obs::parse_category_mask(options.get("trace-categories", ""), &bad_token);
      if (!mask) {
        out << "unknown trace category '" << bad_token << "' in --trace-categories '"
            << options.get("trace-categories", "") << "' (valid: " << obs::kCategoryListCsv
            << ")\n";
        return 2;
      }
    }
    profile_ = options.has("profile");
    if (wants("prof") || wants("prof_trace") || profile_) {
      hostprof_ = std::make_unique<obs::hostprof::HostProfiler>();
    }
    if (options.has("slo")) slo_path_ = options.get("slo", "");
    if (wants("health") || wants("report_md") || slo_path_) {
      health_ = std::make_unique<obs::health::HealthMonitor>();
    }
    // A hub only when a trace, metrics or spans artifact is requested; its
    // tracer records only for a trace artifact, so a metrics- or spans-only
    // run pays nothing for trace events.
    const bool wants_trace = wants("trace_chrome") || wants("trace_jsonl");
    if (!wants_trace && !wants("metrics") && !wants("spans")) return 0;
    hub_ = std::make_unique<obs::Hub>();
    hub_->tracer.set_category_mask(wants_trace ? mask.value_or(obs::kAllCategories) : 0);
    for (const auto& [name, file] : {std::pair{"trace_jsonl", &jsonl_},
                                     {"trace_chrome", &chrome_}, {"spans", &spans_}}) {
      if (wants(name) && !file->open(path(name))) {
        out << "cannot write " << path(name) << "\n";
        return 1;
      }
    }
    trace_.emplace(jsonl_.stream(), chrome_.stream());
    span_doc_.emplace(spans_.stream());
    // A fleet streams its canonical events and spans straight into the
    // files; a single test's ring and store are replayed by finish(), its
    // ring handing each full run of events to the files in record order on
    // the way, so no trace drops.
    hub_->event_sink = [this](const obs::TraceEvent& e) { trace_->write(e); };
    hub_->tracer.set_overflow([this](std::span<obs::TraceEvent> events) {
      for (const obs::TraceEvent& e : events) trace_->write(e);
    });
    hub_->span_sink = [this](const obs::span::SpanRecord& r) { span(r); };
    return 0;
  }

  [[nodiscard]] obs::Hub* hub() const { return hub_.get(); }
  [[nodiscard]] obs::health::HealthMonitor* health() const { return health_.get(); }
  [[nodiscard]] obs::hostprof::HostProfiler* hostprof() const { return hostprof_.get(); }
  /// The calling thread's host-time timeline; null when not profiling.
  [[nodiscard]] obs::hostprof::Timeline* timeline() const {
    return hostprof_ != nullptr ? &hostprof_->main() : nullptr;
  }
  [[nodiscard]] obs::manifest::RunManifest& manifest() { return manifest_; }

  /// Writes every requested artifact after the simulation, in a fixed
  /// order: trace, spans, metrics, health, report_md, SLO verdicts, host
  /// profile, manifest. `meta` (command and config) heads the health meta;
  /// `resource`, when given, adds the run's resource metrics and meta.
  /// Returns 0, 1 when a file cannot be written, 2 on a malformed --slo
  /// spec, or 3 when an objective is violated — a run with a spec error or
  /// a violation still gets its profile and manifest, since the diff side
  /// wants the violating run's record most of all.
  int finish(std::ostream& out, obs::health::ReportMeta meta,
             const obs::ResourceMonitor* resource) {
    int rc = 0;
    {
      const obs::hostprof::HostScope scope(timeline(), "export");
      if (hub_ != nullptr) {
        if (resource != nullptr) resource->export_metrics(hub_->metrics);
        if (!close_obs(out, meta)) return 1;
      }
      if (resource != nullptr) resource->append_report_meta(meta);
      if (health_ != nullptr) rc = close_health(out, meta);
      if (rc == 1) return 1;
    }
    // The host profile renders after finish() stamps the wall: it describes
    // the run, is never diffed, and writing it cannot perturb anything
    // deterministic.
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - wall_start_)
                         .count();
    if (hostprof_ != nullptr) {
      hostprof_->finish();
      const obs::hostprof::ProfData data = hostprof_->snapshot();
      wall_ms = static_cast<double>(data.wall_ns) / 1e6;
      if (!write("prof", out,
                 [&](std::ostream& f) { obs::hostprof::write_prof_jsonl(data, f); }) ||
          !write("prof_trace", out, [&](std::ostream& f) {
            obs::hostprof::write_prof_chrome_trace(data, f);
          })) {
        return 1;
      }
      if (profile_) {
        obs::hostprof::write_prof_report_markdown(obs::hostprof::analyze_prof(data), out);
      }
      manifest_.summaries["hostprof"] = obs::hostprof::summarize_for_manifest(data);
    }
    manifest_.host.emplace_back("wall_ms", wall_ms);
    if (!dir_.empty() &&
        !write_file((std::filesystem::path(dir_) / "manifest.jsonl").string(), "manifest",
                    out, [&](std::ostream& f) {
                      obs::manifest::write_manifest_jsonl(manifest_, f);
                    })) {
      return rc != 0 ? rc : 1;
    }
    return rc;
  }

 private:
  [[nodiscard]] bool wants(std::string_view name) const { return files_.contains(name); }

  /// Where artifact `name` lands in DIR.
  [[nodiscard]] std::string path(std::string_view name) const {
    return (std::filesystem::path(dir_) / files_.find(name)->second).string();
  }

  /// Closes `file`, echoes `name: path<note>` and records the digest taken
  /// as it was written. False after a "cannot write" message.
  bool close(std::string_view name, BackgroundFile& file, std::ostream& out,
             const std::string& note = "") {
    if (!file.close()) {
      out << "cannot write " << path(name) << "\n";
      return false;
    }
    out << name << ": " << path(name) << note << "\n";
    manifest_.artifacts.push_back(file.digest().record(std::string(name), path(name)));
    return true;
  }

  /// Renders artifact `name` when it was requested; see close().
  bool write(std::string_view name, std::ostream& out, const Render& render) {
    if (!wants(name)) return true;
    BackgroundFile file;
    if (!file.open(path(name))) {
      out << "cannot write " << path(name) << "\n";
      return false;
    }
    render(*file.stream());
    return close(name, file, out);
  }

  /// Replays what the hub's own ring and store hold (a fleet streamed its
  /// records already, so they are empty), surfaces span loss, and closes the
  /// trace, spans and metrics artifacts. The trace is always whole (its ring
  /// overflows into the files); a span store that dropped shows before the
  /// artifacts close, as a stderr warning, an obs.span_dropped counter in
  /// the metrics and a key in the health meta.
  bool close_obs(std::ostream& out, obs::health::ReportMeta& meta) {
    for (const obs::TraceEvent& e : hub_->tracer.events()) trace_->write(e);
    for (const obs::span::SpanRecord& r : hub_->spans.spans()) span(r);
    const std::uint64_t span_dropped = hub_->spans.dropped();
    if (span_dropped > 0) {
      std::cerr << "warning: span store dropped " << span_dropped << " spans\n";
      hub_->metrics.counter("obs.span_dropped").inc(span_dropped);
      meta.emplace_back("obs.span_dropped", std::to_string(span_dropped));
    }
    trace_->finish();
    span_doc_->finish(span_dropped);
    const std::uint64_t trace_dropped = hub_->tracer.dropped();
    const std::string trace_note = count_note(trace_->events(), "events", trace_dropped);
    for (const auto& [name, file, note] :
         {std::tuple{"trace_chrome", &chrome_, trace_note},
          {"trace_jsonl", &jsonl_, trace_note},
          {"spans", &spans_, count_note(span_doc_->spans(), "spans", span_dropped)}}) {
      if (file->is_open() && !close(name, *file, out, note)) return false;
    }
    manifest_.summaries["trace"] = obs::summarize_for_manifest(*trace_, trace_dropped);
    manifest_.summaries["spans"] = obs::span::summarize_for_manifest(*span_doc_);
    const obs::MetricsSnapshot snapshot = hub_->metrics.snapshot();
    if (!write("metrics", out,
               [&](std::ostream& f) { obs::write_metrics_json(snapshot, f); })) {
      return false;
    }
    manifest_.summaries["metrics"] = obs::summarize_for_manifest(snapshot);
    return true;
  }

  /// Folds the stage health, writes the health artifacts and evaluates the
  /// --slo spec. Returns 0, 1 on an unwritable file, 2 on a malformed spec,
  /// or 3 when at least one objective is violated.
  int close_health(std::ostream& out, const obs::health::ReportMeta& meta) {
    if (!stages_.empty()) {
      health_->cell("stage_s", "all") = stage_all_;
      for (const auto& [name, stage] : stages_) {
        health_->cell("stage_s", "stage:" + name) = stage;
      }
    }
    const obs::health::HealthSnapshot snapshot = health_->snapshot();
    manifest_.summaries["health"] = obs::health::summarize_for_manifest(snapshot);
    std::optional<obs::health::SloEvaluation> evaluation;
    if (slo_path_) {
      std::string error;
      const auto specs = obs::health::load_slo_file(*slo_path_, &error);
      if (!specs) {
        out << "bad --slo spec: " << error << "\n";
        return 2;
      }
      evaluation = obs::health::evaluate_slos(*specs, snapshot);
    }
    const obs::health::SloEvaluation* eval = evaluation ? &*evaluation : nullptr;
    if (!write("health", out,
               [&](std::ostream& f) {
                 obs::health::write_health_json(snapshot, meta, eval, f);
               }) ||
        !write("report_md", out, [&](std::ostream& f) {
          obs::health::write_health_markdown(snapshot, meta, eval, f);
        })) {
      return 1;
    }
    if (!evaluation) return 0;
    for (const auto& r : evaluation->results) {
      manifest_.slos.push_back(
          {r.spec.name, r.dimension, r.spec.stat, r.observed, slo_status_name(r.status)});
      if (r.status != obs::health::SloStatus::kViolated) continue;
      out << "SLO VIOLATION: " << r.spec.name << " [" << r.dimension << "] " << r.spec.stat
          << " = " << r.observed << " (samples " << r.samples << ")\n";
    }
    out << "slo: " << evaluation->results.size() - evaluation->violations() << "/"
        << evaluation->results.size() << " objectives passed\n";
    return evaluation->ok() ? 0 : 3;
  }

  /// Writes one span and, with a health monitor, folds a closed span's
  /// duration into the "stage_s" cells — under "all" and dimension
  /// "stage:<name>" — so an SLO spec can bound per-stage latency (e.g. p95
  /// swiftest.convergence time).
  void span(const obs::span::SpanRecord& r) {
    span_doc_->write(r);
    if (health_ == nullptr || !r.closed) return;
    const double seconds = core::to_seconds(r.duration());
    stage_all_.observe(seconds);
    auto it = stages_.find(std::string_view(r.name));
    if (it == stages_.end()) {
      it = stages_.emplace(r.name, obs::health::StreamingAggregate{}).first;
    }
    it->second.observe(seconds);
  }

  std::chrono::steady_clock::time_point wall_start_;
  bool fleet_ = false;
  bool profile_ = false;
  std::optional<std::string> slo_path_;
  std::string dir_;
  std::map<std::string, std::string_view, std::less<>> files_;  // --obs name -> file
  obs::manifest::RunManifest manifest_;
  std::unique_ptr<obs::hostprof::HostProfiler> hostprof_;
  std::unique_ptr<obs::health::HealthMonitor> health_;
  std::unique_ptr<obs::Hub> hub_;
  BackgroundFile jsonl_;
  BackgroundFile chrome_;
  BackgroundFile spans_;
  std::optional<obs::TraceWriter> trace_;
  std::optional<obs::span::SpanWriter> span_doc_;
  obs::health::StreamingAggregate stage_all_;
  std::map<std::string, obs::health::StreamingAggregate, std::less<>> stages_;
};

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
  // The generator models the 2020 and 2021 datasets only.
  const auto tests = options.number<std::size_t>("tests", 0, 0, 100'000'000, out);
  const auto year = options.number<int>("year", 2021, 2020, 2021, out);
  const auto seed = options.number<std::uint64_t>("seed", 1, 0, kSeedMax, out);
  if (!tests || !year || !seed) return 2;
  const std::string path = options.get("out", "");
  const auto records = dataset::generate_campaign(*tests, *year, *seed);
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
  if (!options.has("rate")) {
    out << "test requires --rate\n";
    return 2;
  }
  const auto rate = options.number<double>("rate", 100.0, 0.1, 10'000.0, out);
  const auto seed = options.number<std::uint64_t>("seed", 42, 0, kSeedMax, out);
  if (!rate || !seed) return 2;
  const auto tech = parse_tech(options.get("tech", "5g"));
  if (!tech) {
    out << "unknown --tech\n";
    return 2;
  }
  RunOutputs run;
  if (const int rc = run.init(options, "test", out); rc != 0) return rc;
  // Shared by the manifest's config lines and the health meta.
  const obs::health::ReportMeta run_config = {
      {"tech", options.get("tech", "5g")},
      {"rate_mbps", options.get("rate", "")},
      {"seed", std::to_string(*seed)},
  };
  obs::manifest::RunManifest& mf = run.manifest();
  mf.config = run_config;
  mf.config.emplace_back("wire", options.has("wire") ? "true" : "false");
  netsim::ScenarioConfig net;
  net.access_rate = core::Bandwidth::mbps(*rate);
  netsim::Scenario scenario(net, *seed);
  scenario.scheduler().set_obs(run.hub());
  swift::ModelRegistry registry;
  if (options.has("models")) {
    swift::load_models_file(options.get("models", ""), registry);
  }
  swift::SwiftestConfig cfg;
  cfg.tech = *tech;
  bts::BtsResult result;
  {
    const obs::hostprof::HostScope scope(run.timeline(), "cli.test_run");
    if (options.has("wire")) {
      swift::WireClient client(cfg, registry);
      result = client.run(scenario);
    } else {
      swift::SwiftestClient client(cfg, registry);
      result = client.run(scenario);
    }
  }
  out << "estimate: " << result.bandwidth_mbps << " Mbps (truth " << *rate << ")\n"
      << "probe time: " << core::to_seconds(result.probe_duration) << " s; data: "
      << core::to_string(result.data_used) << "; servers: " << result.connections_used
      << "\n";
  mf.bench = {
      {"estimate_mbps", result.bandwidth_mbps},
      {"probe_time_s", core::to_seconds(result.probe_duration)},
      {"data_mb", result.data_used.megabytes()},
      {"servers_used", static_cast<double>(result.connections_used)},
  };
  if (obs::health::HealthMonitor* health = run.health()) {
    obs::health::TestSample sample;
    sample.duration_s = core::to_seconds(result.total_duration());
    sample.data_mb = result.data_used.megabytes();
    sample.deviation = bts::deviation(result.bandwidth_mbps, *rate);
    const std::string dims[] = {dataset::dimension_key(*tech)};
    sample.dimensions = dims;
    health->note_arrival(0.0);
    health->record_test(sample);
  }
  obs::health::ReportMeta meta = {{"command", "test"}};
  meta.insert(meta.end(), run_config.begin(), run_config.end());
  return run.finish(out, std::move(meta), nullptr);
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
  const auto tests_per_day =
      options.number<double>("tests-per-day", 10'000.0, 0.0, kMaxTestsPerDay, out);
  if (!tests_per_day) return 2;
  const auto records = dataset::generate_campaign(60'000, 2021, 7);
  deploy::WorkloadParams params;
  params.tests_per_day = *tests_per_day;
  const auto workload = deploy::estimate_workload(records, params);
  out << "demand: " << workload.demand_mbps << " Mbps (" << *tests_per_day
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
  // These flags size the run or gate a thread pool: --tests-per-day is each
  // server-day's Poisson mean (a NaN or huge mean would hang the draw) and
  // --jobs 0 means the hardware concurrency (resolved in simulate_fleet).
  deploy::FleetSimConfig cfg;
  const auto seed = options.number<std::uint64_t>("seed", 99, 0, kSeedMax, out);
  const auto servers = options.number<std::size_t>("servers", 20, 1, kMaxCount, out);
  const auto days = options.number<int>("days", 3, 1, kMaxCount, out);
  const auto jobs = options.number<std::size_t>("jobs", 1, 0, kMaxJobs, out,
                                                "; 0 means the hardware concurrency");
  const auto chunk = options.number<std::size_t>("chunk", 0, 1, kMaxCount, out);
  const auto tests_per_day =
      options.number<double>("tests-per-day", cfg.tests_per_day, 0.0, kMaxTestsPerDay, out);
  if (!seed || !servers || !days || !jobs || !chunk || !tests_per_day) return 2;
  cfg.seed = *seed;
  cfg.server_count = *servers;
  cfg.days = *days;
  cfg.jobs = *jobs;
  cfg.chunk = *chunk;
  cfg.tests_per_day = *tests_per_day;
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
  // The host-time profiler spans the whole run — population draw through
  // artifact export — so the attribution covers (nearly) all of wall-clock.
  RunOutputs run;
  if (const int rc = run.init(options, "fleet", out); rc != 0) return rc;
  obs::hostprof::Timeline* host_tl = run.timeline();
  std::vector<dataset::TestRecord> population;
  {
    const obs::hostprof::HostScope scope(host_tl, "workload.population");
    population = dataset::generate_campaign(40'000, 2021, 9);
  }
  // Everything between the population draw and the replay is serial setup;
  // covering it keeps the calling-thread phase coverage honest.
  std::optional<obs::hostprof::HostScope> setup_scope;
  setup_scope.emplace(host_tl, "run.setup");
  static const swift::ModelRegistry registry;
  cfg.obs = run.hub();
  cfg.health = run.health();
  cfg.hostprof = run.hostprof();

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
  obs::manifest::RunManifest& mf = run.manifest();
  mf.config = run_config;
  // The partition-invariance contract itself — constant across runs, so
  // `obs diff --expect-identical` holds across any {chunk, jobs} matrix.
  mf.config.emplace_back("executor", "chunk-stream/partition-invariant");
  mf.config.insert(mf.config.end(), obs_config.begin(), obs_config.end());

  // Resource self-telemetry is always collected (a few relaxed atomics per
  // chunk); --progress controls whether it is *surfaced* — the live stderr
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
  deploy::FleetSimResult result;
  {
    // One depth-0 umbrella over the whole simulation: the nested phases
    // (workload.gen, exec.run, merge, ...) open at depth 1, and the sim's
    // internal setup/teardown — chunk-state construction and destruction —
    // stays attributed instead of leaking into a coverage gap.
    const obs::hostprof::HostScope scope(host_tl, "fleet.sim");
    result = deploy::simulate_fleet(population, registry, cfg);
    if (progress_thread.joinable()) {
      progress_stop.store(true, std::memory_order_relaxed);
      progress_thread.join();
      std::cerr << "\r" << monitor.progress_line() << "\n";
    }
  }
  mf.bench = {
      {"tests_simulated", static_cast<double>(result.tests_simulated)},
      {"util_median_pct", result.summary.median},
      {"util_mean_pct", result.summary.mean},
      {"util_p99_pct", result.p99},
      {"util_max_pct", result.summary.max},
      {"share_leq_45", result.share_leq_45},
      {"overload_seconds_share", result.overload_seconds_share},
  };
  out << "fleet " << cfg.server_count << " x 100 Mbps over " << cfg.days
      << " day(s), " << result.tests_simulated << " tests (" << backend
      // Neither the chunk size nor the job count shapes the result, so
      // neither appears here: stdout stays byte-identical across the whole
      // {chunk, jobs} matrix.
      << " backend)\n"
      << "utilization: median " << result.summary.median << "%, mean "
      << result.summary.mean << "%, p99 " << result.p99 << "%, max "
      << result.summary.max << "%\n"
      << "share of busy windows <= 45%: " << 100.0 * result.share_leq_45 << "%\n";
  mf.host = {
      {"jobs", static_cast<double>(cfg.jobs)},
      {"chunk", static_cast<double>(cfg.chunk)},
  };
  obs::health::ReportMeta meta = {{"command", "fleet"}};
  meta.insert(meta.end(), run_config.begin(), run_config.end());
  meta.insert(meta.end(), obs_config.begin(), obs_config.end());
  return run.finish(out, std::move(meta), options.has("progress") ? &monitor : nullptr);
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
           "       [--no-artifacts]   (skip the spans read: no stage attribution)\n";
    return 2;
  }
  const std::string path_a = args[1];
  const std::string path_b = args[2];
  const auto options = Options::parse(args.subspan(3), "obs", out);
  if (!options) return 2;
  if (!apply_log_level(*options, out)) return 2;
  const auto tolerance = options->number<double>(
      "tolerance", obs::diff::DiffOptions{}.rel_tolerance, 0.0, 1e6, out);
  if (!tolerance) return 2;

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
  diff_options.rel_tolerance = *tolerance;
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
