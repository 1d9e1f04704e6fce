// RunManifest serialization round-trip, content hashing, and the semantic
// diff verdicts `obs diff` builds on (DESIGN.md §14).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/diff/diff.hpp"
#include "obs/export.hpp"
#include "obs/health/report.hpp"
#include "obs/hostprof/report.hpp"
#include "obs/manifest/manifest.hpp"
#include "obs/span/json.hpp"

namespace swiftest::obs {
namespace {

// --- content hashing -------------------------------------------------------

TEST(Manifest, Fnv1a64KnownVectors) {
  // Published FNV-1a test vectors: offset basis for "", and "a".
  EXPECT_EQ(manifest::fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(manifest::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(manifest::fnv1a64("ab"), manifest::fnv1a64("ba"));
}

TEST(Manifest, ContentHashFormat) {
  const std::string hash = manifest::content_hash("payload");
  ASSERT_EQ(hash.size(), 8u + 16u);
  EXPECT_EQ(hash.substr(0, 8), "fnv1a64:");
  EXPECT_EQ(hash.find_first_not_of("0123456789abcdef", 8), std::string::npos);
}

// --- artifact digests -------------------------------------------------------

// A writer feeds its digest block by block as the bytes go out; however the
// content is split, the record carries its byte count, newline rows and the
// content hash of the whole.
TEST(Manifest, ArtifactDigestCountsRowsAndHashesContent) {
  const std::string content = "{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n";
  for (const std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                                  content.size()}) {
    manifest::ArtifactDigest digest;
    digest.update(std::string_view(content).substr(0, split));
    digest.update(std::string_view(content).substr(split));
    const manifest::ArtifactRecord record = digest.record("health", "dir/health.json");
    EXPECT_EQ(record.name, "health");
    EXPECT_EQ(record.path, "dir/health.json");
    EXPECT_EQ(record.bytes, content.size()) << split;
    EXPECT_EQ(record.rows, 3u) << split;
    EXPECT_EQ(record.hash, manifest::content_hash(content)) << split;
  }
  const manifest::ArtifactRecord empty = manifest::ArtifactDigest{}.record("e", "e");
  EXPECT_EQ(empty.bytes, 0u);
  EXPECT_EQ(empty.rows, 0u);
  EXPECT_EQ(empty.hash, manifest::content_hash(""));
}

// --- serialization round-trip ----------------------------------------------

manifest::RunManifest sample_manifest() {
  manifest::RunManifest m;
  m.command = "fleet";
  m.build = "deadbeef";
  m.config = {{"backend", "analytic"}, {"seed", "21"}, {"shards", "4"}};
  m.artifacts.push_back({"health", "/tmp/health.json", 120, 1,
                         manifest::content_hash("health-bytes")});
  m.summaries["trace"] = {{"cat.protocol", 10.0}, {"dropped", 0.0},
                          {"events", 42.0}};
  m.summaries["health"] = {{"tests", 100.0}};
  m.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 37.5}};
  m.slos.push_back({"latency", "all", "p95", 1.25, "pass"});
  m.host = {{"jobs", 4.0}, {"wall_ms", 1234.0}};
  return m;
}

TEST(Manifest, JsonlRoundTripPreservesEveryField) {
  const manifest::RunManifest m = sample_manifest();
  std::ostringstream out;
  manifest::write_manifest_jsonl(m, out);

  std::string error;
  const auto parsed = manifest::parse_manifest_jsonl(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->version, manifest::kManifestVersion);
  EXPECT_EQ(parsed->tool, "swiftest-cli");
  EXPECT_EQ(parsed->command, "fleet");
  EXPECT_EQ(parsed->build, "deadbeef");
  EXPECT_EQ(parsed->config, m.config);
  ASSERT_EQ(parsed->artifacts.size(), 1u);
  EXPECT_EQ(parsed->artifacts[0].name, "health");
  EXPECT_EQ(parsed->artifacts[0].bytes, 120u);
  EXPECT_EQ(parsed->artifacts[0].rows, 1u);
  EXPECT_EQ(parsed->artifacts[0].hash, m.artifacts[0].hash);
  ASSERT_NE(parsed->find_summary("trace"), nullptr);
  EXPECT_EQ(*parsed->find_summary("trace"), m.summaries.at("trace"));
  EXPECT_EQ(parsed->bench, m.bench);
  ASSERT_EQ(parsed->slos.size(), 1u);
  EXPECT_EQ(parsed->slos[0].stat, "p95");
  EXPECT_DOUBLE_EQ(parsed->slos[0].observed, 1.25);
  EXPECT_EQ(parsed->slos[0].status, "pass");
  EXPECT_EQ(parsed->host, m.host);
  EXPECT_EQ(parsed->config_value("seed"), std::optional<std::string>("21"));
  EXPECT_EQ(parsed->config_value("nope"), std::nullopt);
}

TEST(Manifest, RoundTripIsByteStable) {
  // write(parse(write(m))) == write(m): the parsed form loses nothing the
  // writer renders.
  std::ostringstream first;
  manifest::write_manifest_jsonl(sample_manifest(), first);
  const auto parsed = manifest::parse_manifest_jsonl(first.str());
  ASSERT_TRUE(parsed.has_value());
  std::ostringstream second;
  manifest::write_manifest_jsonl(*parsed, second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Manifest, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(manifest::parse_manifest_jsonl("not json\n", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(manifest::parse_manifest_jsonl(
                   R"({"type":"mystery"})" "\n", &error)
                   .has_value());
  // A document with records but no manifest header is not a manifest.
  EXPECT_FALSE(manifest::parse_manifest_jsonl(
                   R"({"type":"config","key":"seed","value":"1"})" "\n", &error)
                   .has_value());
  // Required field missing.
  EXPECT_FALSE(manifest::parse_manifest_jsonl(
                   R"({"type":"manifest","version":1,"tool":"swiftest-cli"})"
                   "\n",
                   &error)
                   .has_value());
}

// `obs diff` reads manifests it did not write, and a killed run leaves a
// prefix of one on disk. Every byte prefix must either parse as the whole
// records it holds (it ends on a line boundary past the header) or be
// refused with a reason: never a crash or a partial record.
TEST(Manifest, EveryPrefixParsesWholeRecordsOrFailsCleanly) {
  std::ostringstream out;
  manifest::write_manifest_jsonl(sample_manifest(), out);
  const std::string doc = out.str();
  const std::size_t header_end = doc.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  for (std::size_t n = 0; n <= doc.size(); ++n) {
    const std::string_view prefix = std::string_view(doc).substr(0, n);
    const bool whole_lines =
        n >= header_end && (n == doc.size() || doc[n] == '\n' || doc[n - 1] == '\n');
    std::string error;
    const auto parsed = manifest::parse_manifest_jsonl(prefix, &error);
    ASSERT_EQ(parsed.has_value(), whole_lines) << "prefix of " << n << " bytes: " << error;
    if (!parsed) {
      EXPECT_FALSE(error.empty()) << "prefix of " << n << " bytes";
      continue;
    }
    // What parsed renders back as exactly the lines the prefix holds.
    std::ostringstream rendered;
    manifest::write_manifest_jsonl(*parsed, rendered);
    const std::size_t lines_end = doc[n - 1] == '\n' ? n : n + 1;
    EXPECT_EQ(rendered.str(), doc.substr(0, lines_end)) << "prefix of " << n << " bytes";
  }
}

// --- diff verdicts ---------------------------------------------------------

diff::DiffOptions no_artifact_options() {
  diff::DiffOptions options;
  options.load_artifacts = false;  // pure manifest-vs-manifest comparison
  return options;
}

TEST(ManifestDiff, IdenticalManifestsDiffClean) {
  const manifest::RunManifest m = sample_manifest();
  const diff::DiffReport report = diff::diff_runs(m, m, no_artifact_options());
  EXPECT_TRUE(report.identical);
  EXPECT_EQ(report.regressions, 0u);
}

TEST(ManifestDiff, HostAndConfigDriftStaysInformational) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.host = {{"jobs", 1.0}, {"wall_ms", 9999.0}};
  b.config.emplace_back("obs.sample", "1/16");
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_TRUE(report.identical) << "host/config drift must never gate";
  EXPECT_EQ(report.regressions, 0u);
  // ... but it is still reported for attribution.
  bool saw_host = false, saw_config = false;
  for (const diff::DiffEntry& entry : report.entries) {
    if (entry.section == "host") saw_host = true;
    if (entry.section == "config" && entry.key == "obs.sample") saw_config = true;
    if (entry.section == "host" || entry.section == "config") {
      EXPECT_EQ(entry.status, diff::DiffStatus::kInfo);
    }
  }
  EXPECT_TRUE(saw_host);
  EXPECT_TRUE(saw_config);
}

// Host-time entries are informational however the runs differ: two runs
// that differ only in their host profiles' hashes, the hostprof summary and
// the host lines are identical, with and without --expect-identical.
TEST(ManifestDiff, HostTimeEntriesNeverBreakIdentity) {
  manifest::RunManifest a = sample_manifest();
  a.artifacts.push_back({"prof", "/tmp/a/prof.jsonl", 900, 12,
                         manifest::content_hash("prof-a")});
  a.artifacts.push_back({"prof_trace", "/tmp/a/prof_trace.json", 700, 1,
                         manifest::content_hash("trace-a")});
  a.summaries["hostprof"] = {{"wall_ms", 81.0}, {"serial_fraction", 0.09}};
  manifest::RunManifest b = a;
  b.artifacts[1].hash = manifest::content_hash("prof-b");
  b.artifacts[2].hash = manifest::content_hash("trace-b");
  b.summaries["hostprof"] = {{"wall_ms", 95.0}, {"serial_fraction", 0.11}};
  b.host = {{"jobs", 4.0}, {"wall_ms", 1500.0}};
  for (const bool expect_identical : {false, true}) {
    diff::DiffOptions options = no_artifact_options();
    options.expect_identical = expect_identical;
    const diff::DiffReport report = diff::diff_runs(a, b, options);
    EXPECT_TRUE(report.identical) << "expect_identical=" << expect_identical;
    EXPECT_EQ(report.regressions, 0u);
    // Still reported: two hashes, two hostprof values and one host line.
    EXPECT_EQ(report.entries.size(), 5u);
    for (const diff::DiffEntry& entry : report.entries) {
      EXPECT_EQ(entry.status, diff::DiffStatus::kInfo) << entry.section << " " << entry.key;
    }
  }
}

TEST(ManifestDiff, BenchValueBeyondToleranceRegresses) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 50.0}};
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_FALSE(report.identical);
  EXPECT_GE(report.regressions, 1u);
  bool found = false;
  for (const diff::DiffEntry& entry : report.entries) {
    if (entry.section == "bench" && entry.key == "util_median_pct") {
      found = true;
      EXPECT_EQ(entry.status, diff::DiffStatus::kRegressed);
      EXPECT_DOUBLE_EQ(entry.delta, 12.5);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ManifestDiff, SmallDriftWithinToleranceDoesNotGate) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 38.0}};  // +1.3%
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_FALSE(report.identical) << "a real delta is still a semantic change";
}

TEST(ManifestDiff, ExpectIdenticalGatesToleratedDrift) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 38.0}};
  diff::DiffOptions options = no_artifact_options();
  options.expect_identical = true;
  const diff::DiffReport report = diff::diff_runs(a, b, options);
  EXPECT_FALSE(report.identical);
  EXPECT_GE(report.regressions, 1u);
}

TEST(ManifestDiff, ExactCountKeysIgnoreTolerance) {
  // "events" is integer-semantics: a one-event delta regresses even though
  // it is far inside the 5% relative tolerance.
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.summaries["trace"] = {{"cat.protocol", 10.0}, {"dropped", 0.0},
                          {"events", 43.0}};
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_GE(report.regressions, 1u);
  bool found = false;
  for (const diff::DiffEntry& entry : report.entries) {
    if (entry.key == "events") {
      found = true;
      EXPECT_EQ(entry.status, diff::DiffStatus::kRegressed);
    }
  }
  EXPECT_TRUE(found);
}

TEST(ManifestDiff, NewSloViolationRegresses) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.slos[0].status = "violated";
  b.slos[0].observed = 9.0;
  const diff::DiffReport report = diff::diff_runs(a, b, no_artifact_options());
  EXPECT_GE(report.regressions, 1u);
  EXPECT_FALSE(report.identical);
}

TEST(ManifestDiff, RendersJsonAndMarkdown) {
  const manifest::RunManifest a = sample_manifest();
  manifest::RunManifest b = sample_manifest();
  b.bench = {{"tests_simulated", 10000.0}, {"util_median_pct", 50.0}};
  const diff::DiffReport report =
      diff::diff_runs(a, b, no_artifact_options(), "runA", "runB");
  std::ostringstream json;
  diff::write_diff_json(report, json);
  EXPECT_NE(json.str().find("\"regressions\""), std::string::npos);
  EXPECT_NE(json.str().find("runA"), std::string::npos);
  std::ostringstream md;
  diff::write_diff_markdown(report, md);
  EXPECT_NE(md.str().find("util_median_pct"), std::string::npos);
}

// --- one record per artifact -------------------------------------------

// One run as the CLI records it: each writer renders its artifact to a file
// and summarizes what it wrote into the manifest.
manifest::RunManifest written_run(const std::string& tag, int escalations,
                                  double p95_5g) {
  manifest::RunManifest m;
  m.command = "fleet";
  m.build = "deadbeef";
  const auto add_artifact = [&m, &tag](const std::string& name, const std::string& text) {
    const std::string path = ::testing::TempDir() + "/once_" + tag + "_" + name;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
    manifest::ArtifactDigest digest;
    digest.update(text);
    m.artifacts.push_back(digest.record(name, path));
  };

  std::ostringstream jsonl;
  TraceWriter trace(&jsonl, nullptr);
  trace.write({1, Category::kProtocol, EventKind::kInstant, "probe.start", 7, 0.0});
  for (int i = 0; i < escalations; ++i) {
    trace.write({2 + i, Category::kProtocol, EventKind::kInstant, "probe.escalate", 7, 0.0});
  }
  trace.finish();
  add_artifact("trace_jsonl", jsonl.str());
  m.summaries["trace"] = summarize_for_manifest(trace, 0);

  health::HealthSnapshot snapshot;
  snapshot.tests = 10;
  health::AggregateStats cell{10, 20.0, 2.0, 1.0, 4.0, 2.0, 3.0, 4.0};
  snapshot.metrics["duration_s"]["all"] = cell;
  cell.p95 = p95_5g;
  snapshot.metrics["duration_s"]["tech:5g"] = cell;
  std::ostringstream health_json;
  health::write_health_json(snapshot, {}, nullptr, health_json);
  add_artifact("health", health_json.str());
  m.summaries["health"] = health::summarize_for_manifest(snapshot);

  hostprof::ProfData prof;
  prof.wall_ns = 1'000'000;
  prof.timelines.resize(1);
  std::ostringstream prof_jsonl;
  hostprof::write_prof_jsonl(prof, prof_jsonl);
  add_artifact("prof", prof_jsonl.str());
  m.summaries["hostprof"] = hostprof::summarize_for_manifest(prof);
  return m;
}

// Runs that differ in one event name's count (and so in the total and its
// category) and in one non-"all" health cell's p95: the diff reports each
// of those facts once, from the summaries, and reads none of the trace,
// health or prof files: its report is the same once they are deleted.
TEST(ManifestDiff, EachArtifactFactIsComparedOnceFromItsSummary) {
  const manifest::RunManifest a = written_run("a", 1, 3.0);
  const manifest::RunManifest b = written_run("b", 2, 3.5);
  const diff::DiffReport report = diff::diff_runs(a, b, diff::DiffOptions{});
  std::vector<std::string> gated;
  for (const diff::DiffEntry& entry : report.entries) {
    if (entry.status == diff::DiffStatus::kInfo) continue;
    EXPECT_EQ(entry.status, diff::DiffStatus::kRegressed) << entry.key;
    gated.push_back(entry.section + " " + entry.key);
  }
  std::sort(gated.begin(), gated.end());
  const std::vector<std::string> expected = {
      "summary.health duration_s[tech:5g].p95", "summary.trace cat.protocol",
      "summary.trace event.probe.escalate", "summary.trace events"};
  EXPECT_EQ(gated, expected);
  EXPECT_EQ(report.regressions, expected.size());
  for (const char* section : {"trace", "health", "hostprof"}) {
    EXPECT_EQ(report.sections.count(section), 0u) << section;
  }

  std::ostringstream with_files;
  diff::write_diff_json(report, with_files);
  for (const manifest::RunManifest* run : {&a, &b}) {
    for (const manifest::ArtifactRecord& artifact : run->artifacts) {
      ASSERT_EQ(std::remove(artifact.path.c_str()), 0) << artifact.path;
    }
  }
  std::ostringstream without_files;
  diff::write_diff_json(diff::diff_runs(a, b, diff::DiffOptions{}), without_files);
  EXPECT_EQ(with_files.str(), without_files.str());
}

// --- trace and span manifest summaries ----------------------------------

TEST(Manifest, WriterSummariesCountWhatTheWritersRendered) {
  std::ostringstream jsonl;
  TraceWriter trace(&jsonl, nullptr);
  trace.write({1, Category::kLink, EventKind::kInstant, "link.drop", 0, 0.0});
  trace.write({2, Category::kProtocol, EventKind::kInstant, "probe.start", 0, 0.0});
  trace.write({3, Category::kLink, EventKind::kCounter, "link.queue", 0, 1.0});
  // A name counts by its text: a second copy at another address merges.
  static const char kDropCopy[] = "link.drop";
  trace.write({4, Category::kLink, EventKind::kInstant, kDropCopy, 0, 0.0});
  trace.finish();
  const std::vector<std::pair<std::string, double>> expected_trace = {
      {"events", 4.0},          {"dropped", 7.0},          {"cat.link", 3.0},
      {"cat.protocol", 1.0},    {"event.link.drop", 2.0},  {"event.link.queue", 1.0},
      {"event.probe.start", 1.0}};
  EXPECT_EQ(summarize_for_manifest(trace, 7), expected_trace);

  // A writer without a stream still counts, so a run summarizes its spans
  // whether or not spans.json was requested.
  span::SpanWriter spans(nullptr);
  span::SpanRecord open;
  open.id = 1;
  span::SpanRecord closed = open;
  closed.id = 2;
  closed.closed = true;
  spans.write(open);
  spans.write(closed);
  spans.finish(4);
  const std::vector<std::pair<std::string, double>> expected_spans = {
      {"spans", 2.0}, {"open", 1.0}, {"dropped", 4.0}};
  EXPECT_EQ(span::summarize_for_manifest(spans), expected_spans);
}

}  // namespace
}  // namespace swiftest::obs
