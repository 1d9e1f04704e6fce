#include "cli.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "obs/log.hpp"
#include "obs/manifest/manifest.hpp"
#include "obs/trace.hpp"

namespace swiftest::cli {
namespace {

int run(std::vector<std::string> args, std::string& output) {
  std::ostringstream out;
  const int rc = run_cli(args, out);
  output = out.str();
  return rc;
}

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// A per-test --obs-dir under the gtest temp dir.
std::string obs_dir(const std::string& tag) { return testing::TempDir() + "/" + tag; }

TEST(Cli, NoArgsPrintsUsageAndFails) {
  std::string output;
  EXPECT_EQ(run({}, output), 2);
  EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  std::string output;
  EXPECT_EQ(run({"help"}, output), 0);
  EXPECT_NE(output.find("campaign"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::string output;
  EXPECT_EQ(run({"frobnicate"}, output), 2);
  EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(Cli, CampaignRequiresArguments) {
  std::string output;
  EXPECT_EQ(run({"campaign"}, output), 2);
  EXPECT_NE(output.find("--tests"), std::string::npos);
}

TEST(Cli, CampaignThenReportPipeline) {
  const std::string path = testing::TempDir() + "/cli_campaign.csv";
  std::string output;
  ASSERT_EQ(run({"campaign", "--tests", "20000", "--out", path}, output), 0);
  EXPECT_NE(output.find("wrote 20000 records"), std::string::npos);

  ASSERT_EQ(run({"report", "--in", path}, output), 0);
  EXPECT_NE(output.find("MEASUREMENT REPORT (20000 tests)"), std::string::npos);
  EXPECT_NE(output.find("LTE bands"), std::string::npos);
}

TEST(Cli, ReportMissingFileFailsGracefully) {
  std::string output;
  EXPECT_EQ(run({"report", "--in", "/nonexistent/file.csv"}, output), 1);
  EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST(Cli, TestCommandEstimatesBandwidth) {
  std::string output;
  ASSERT_EQ(run({"test", "--rate", "120", "--tech", "wifi5"}, output), 0);
  EXPECT_NE(output.find("estimate:"), std::string::npos);
  EXPECT_NE(output.find("truth 120"), std::string::npos);
}

TEST(Cli, TestCommandWireVariant) {
  std::string output;
  ASSERT_EQ(run({"test", "--rate", "80", "--tech", "4g", "--wire"}, output), 0);
  EXPECT_NE(output.find("estimate:"), std::string::npos);
}

TEST(Cli, TestRejectsUnknownTech) {
  std::string output;
  EXPECT_EQ(run({"test", "--rate", "80", "--tech", "6g"}, output), 2);
}

TEST(Cli, PlanProducesAPurchase) {
  std::string output;
  ASSERT_EQ(run({"plan", "--tests-per-day", "10000"}, output), 0);
  EXPECT_NE(output.find("demand:"), std::string::npos);
  EXPECT_NE(output.find("plan:"), std::string::npos);
}

TEST(Cli, RegionalPlanListsDomains) {
  std::string output;
  ASSERT_EQ(run({"plan", "--regional"}, output), 0);
  EXPECT_NE(output.find("Beijing"), std::string::npos);
  EXPECT_NE(output.find("total:"), std::string::npos);
}

TEST(Cli, FleetReportsUtilization) {
  std::string output;
  ASSERT_EQ(run({"fleet", "--days", "1"}, output), 0);
  EXPECT_NE(output.find("utilization:"), std::string::npos);
}

TEST(Cli, RunIsAnAliasForTest) {
  std::string output;
  ASSERT_EQ(run({"run", "--rate", "60", "--tech", "wifi5"}, output), 0);
  EXPECT_NE(output.find("estimate:"), std::string::npos);
}

TEST(Cli, RunWritesTraceAndMetricsFiles) {
  const std::string dir = obs_dir("cli_run_trace");
  std::string output;
  ASSERT_EQ(run({"run", "--rate", "50", "--wire", "--obs-dir", dir, "--obs",
                 "trace_chrome,metrics"},
                output),
            0);
  EXPECT_NE(output.find("trace_chrome: " + dir + "/trace.json ("), std::string::npos);
  EXPECT_NE(output.find("metrics: " + dir + "/metrics.json"), std::string::npos);

  const std::string trace = slurp(dir + "/trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("probe.start"), std::string::npos);

  const std::string metrics = slurp(dir + "/metrics.json");
  EXPECT_NE(metrics.find("\"probe.tests_completed\": 1"), std::string::npos);
}

TEST(Cli, TraceCategoriesFilterAppliesAndRejectsUnknown) {
  const std::string dir = obs_dir("cli_trace_proto");
  std::string output;
  ASSERT_EQ(run({"run", "--rate", "50", "--wire", "--obs-dir", dir, "--obs",
                 "trace_chrome", "--trace-categories", "protocol"},
                output),
            0);
  const std::string trace = slurp(dir + "/trace.json");
  EXPECT_NE(trace.find("\"cat\":\"protocol\""), std::string::npos);
  EXPECT_EQ(trace.find("\"cat\":\"scheduler\""), std::string::npos);

  EXPECT_EQ(run({"run", "--rate", "50", "--obs-dir", dir, "--obs", "trace_chrome",
                 "--trace-categories", "bogus"},
                output),
            2);
  EXPECT_NE(output.find("unknown trace category 'bogus'"), std::string::npos);
  EXPECT_NE(output.find(obs::kCategoryListCsv), std::string::npos)
      << "the error must list the valid categories";
}

TEST(Cli, TraceCategoriesValidatedEvenWithoutTraceOutput) {
  // A typo'd category list must fail loudly even when no trace artifact is
  // requested (it used to be silently ignored).
  std::string output;
  EXPECT_EQ(run({"run", "--rate", "50", "--trace-categories", "protcol"},
                output),
            2);
  EXPECT_NE(output.find("unknown trace category 'protcol'"), std::string::npos);

  // A valid list without any artifact stays a no-op success.
  EXPECT_EQ(run({"run", "--rate", "50", "--trace-categories", "protocol"},
                output),
            0);
}

TEST(Cli, MetricsOnlyFleetRunRecordsNoTraceEvents) {
  // Without a trace artifact the tracer stays off: a packet fleet-day with
  // only metrics and spans exports records no trace events, so it has none
  // to drop (it used to fill and wrap the ring).
  const std::string dir = obs_dir("cli_metrics_only");
  std::string output;
  testing::internal::CaptureStderr();
  const int rc = run({"fleet", "--backend", "packet", "--servers", "5", "--days", "1",
                      "--tests-per-day", "50", "--obs-dir", dir, "--obs",
                      "metrics,spans"},
                     output);
  const std::string errors = testing::internal::GetCapturedStderr();
  ASSERT_EQ(rc, 0) << output;
  EXPECT_EQ(errors.find("trace ring dropped"), std::string::npos) << errors;
  EXPECT_NE(output.find("metrics: " + dir + "/metrics.json"), std::string::npos);
  EXPECT_EQ(slurp(dir + "/metrics.json").find("obs.trace_dropped"), std::string::npos);
}

// A fleet streams its trace into trace.jsonl as chunks commit, so a trace
// far larger than any ring lands whole: link events from 20 packet tests
// overflow a 2^18-event chunk ring several times over, and nothing drops.
// The obs dir holds the requested artifacts and the manifest, nothing else.
TEST(Cli, FleetStreamsEveryTraceEventWithoutDropping) {
  const std::string dir = obs_dir("cli_trace_streamed");
  std::filesystem::remove_all(dir);
  std::string output;
  testing::internal::CaptureStderr();
  const int rc = run({"fleet", "--backend", "packet", "--servers", "2", "--days", "1",
                      "--tests-per-day", "20", "--seed", "3", "--trace-categories",
                      "link", "--obs-dir", dir, "--obs", "trace_jsonl,metrics,health"},
                     output);
  const std::string errors = testing::internal::GetCapturedStderr();
  ASSERT_EQ(rc, 0) << output;
  EXPECT_EQ(errors.find("dropped"), std::string::npos) << errors;
  const std::string echo = "trace_jsonl: " + dir + "/trace.jsonl (";
  const auto at = output.find(echo);
  ASSERT_NE(at, std::string::npos) << output;
  const std::size_t from = at + echo.size();
  const std::string count = output.substr(from, output.find(' ', from) - from);
  EXPECT_GT(std::stoull(count), 262144u);
  const std::string trace = slurp(dir + "/trace.jsonl");
  EXPECT_EQ(std::to_string(std::count(trace.begin(), trace.end(), '\n')), count);
  EXPECT_EQ(output.find(count + " events, "), std::string::npos) << output;
  EXPECT_EQ(slurp(dir + "/metrics.json").find("obs.trace_dropped"), std::string::npos);
  EXPECT_EQ(slurp(dir + "/health.json").find("obs.trace_dropped"), std::string::npos);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"health.json", "manifest.jsonl", "metrics.json",
                                             "trace.jsonl"}));
  std::filesystem::remove_all(dir);
}

// A single test's trace ring hands each full run of events to the files, so
// this 900 Mbps wire test, which records far more than the ring's 2^18
// events, writes all of them, in record order from the test's first event
// on, and warns about nothing. Record order is time order except for the
// span mirror's span.begin/span.end, stamped at the span's own (possibly
// back-dated) bounds.
TEST(Cli, TestWritesEveryTraceEventInRecordOrder) {
  const std::string dir = obs_dir("cli_test_whole_trace");
  std::string output;
  testing::internal::CaptureStderr();
  const int rc = run({"test", "--wire", "--rate", "900", "--tech", "5g", "--obs-dir", dir,
                      "--obs", "trace_jsonl,metrics,health"},
                     output);
  const std::string errors = testing::internal::GetCapturedStderr();
  ASSERT_EQ(rc, 0) << output;
  EXPECT_EQ(errors, "");
  EXPECT_NE(output.find("trace_jsonl: " + dir + "/trace.jsonl (505278 events)"),
            std::string::npos)
      << output;
  std::ifstream trace(dir + "/trace.jsonl");
  std::size_t lines = 0;
  long long last_ts = 0;
  for (std::string line; std::getline(trace, line); ++lines) {
    ASSERT_EQ(line.rfind("{\"ts\":", 0), 0u) << line;
    const long long ts = std::stoll(line.substr(6));
    if (lines == 0) EXPECT_EQ(ts, 0) << "the earliest events are kept";
    if (line.find("\"name\":\"span.") != std::string::npos) continue;
    ASSERT_GE(ts, last_ts) << "line " << lines + 1;
    last_ts = ts;
  }
  EXPECT_EQ(lines, 505278u);
  EXPECT_EQ(slurp(dir + "/metrics.json").find("obs.trace_dropped"), std::string::npos);
  EXPECT_EQ(slurp(dir + "/health.json").find("obs.trace_dropped"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Cli, FleetWritesHealthReportAndMarkdown) {
  const std::string dir = obs_dir("cli_health");
  std::string output;
  ASSERT_EQ(run({"fleet", "--days", "1", "--obs-dir", dir, "--obs", "health,report_md"},
                output),
            0);
  EXPECT_NE(output.find("health: " + dir + "/health.json"), std::string::npos);
  EXPECT_NE(output.find("report_md: " + dir + "/report.md"), std::string::npos);

  const std::string json = slurp(dir + "/health.json");
  for (const char* key : {"\"meta\"", "\"tests\"", "\"test_rate\"",
                          "\"metrics\"", "\"duration_s\"", "\"data_mb\"",
                          "\"deviation\"", "\"egress_util\"", "\"tech:4g\"",
                          "\"isp:1\"", "\"server:0\"", "\"p50\"", "\"p95\"",
                          "\"p99\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // No --slo given: the report carries no SLO section.
  EXPECT_EQ(json.find("\"slo\""), std::string::npos);

  const std::string md = slurp(dir + "/report.md");
  EXPECT_NE(md.find("# Fleet health report"), std::string::npos);
  EXPECT_NE(md.find("## Operational signals"), std::string::npos);
}

TEST(Cli, FleetHealthReportIsByteIdenticalForSameSeed) {
  std::string output;
  for (const auto& [tag, seed] : {std::pair<const char*, const char*>{"a", "7"},
                                  {"b", "7"},
                                  {"c", "8"}}) {
    ASSERT_EQ(run({"fleet", "--days", "1", "--seed", seed, "--obs-dir",
                   obs_dir(std::string("cli_health_") + tag), "--obs", "health"},
                  output),
              0);
  }
  const std::string a = slurp(obs_dir("cli_health_a") + "/health.json");
  EXPECT_EQ(a, slurp(obs_dir("cli_health_b") + "/health.json"));
  EXPECT_GT(a.size(), 1000u);
  EXPECT_NE(a, slurp(obs_dir("cli_health_c") + "/health.json"));
}

TEST(Cli, FleetPassesDefaultSloSpec) {
  std::string output;
  EXPECT_EQ(run({"fleet", "--days", "1", "--slo", SWIFTEST_SLO_DEFAULT_PATH},
                output),
            0);
  EXPECT_NE(output.find("objectives passed"), std::string::npos);
  EXPECT_EQ(output.find("SLO VIOLATION"), std::string::npos);
}

TEST(Cli, FleetSloViolationExitsNonZero) {
  const std::string spec_path = testing::TempDir() + "/cli_slo_strict.json";
  {
    std::ofstream spec(spec_path);
    spec << R"({"slos": [{"name": "impossible", "metric": "duration_s",
                          "stat": "p95", "max": 0.000001}]})";
  }
  std::string output;
  EXPECT_EQ(run({"fleet", "--days", "1", "--slo", spec_path}, output), 3);
  EXPECT_NE(output.find("SLO VIOLATION: impossible"), std::string::npos);
}

TEST(Cli, FleetRejectsMalformedSloSpec) {
  const std::string spec_path = testing::TempDir() + "/cli_slo_bad.json";
  {
    std::ofstream spec(spec_path);
    spec << R"({"slos": [{"metric": "duration_s"}]})";
  }
  std::string output;
  EXPECT_EQ(run({"fleet", "--days", "1", "--slo", spec_path}, output), 2);
  EXPECT_NE(output.find("bad --slo spec"), std::string::npos);

  EXPECT_EQ(run({"fleet", "--days", "1", "--slo", "/nonexistent/spec.json"},
                output),
            2);
}

TEST(Cli, TestCommandWritesSingleTestHealth) {
  const std::string dir = obs_dir("cli_test_health");
  std::string output;
  ASSERT_EQ(run({"test", "--rate", "80", "--tech", "4g", "--obs-dir", dir, "--obs",
                 "health"},
                output),
            0);
  const std::string json = slurp(dir + "/health.json");
  EXPECT_NE(json.find("\"tests\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tech:4g\""), std::string::npos);
  EXPECT_NE(json.find("\"deviation\""), std::string::npos);
}

TEST(Cli, ProfilePrintsWallClockTable) {
  // --profile prints the host-time report `profile report` renders, built
  // from the same profiler `--obs prof` writes.
  std::string output;
  ASSERT_EQ(run({"test", "--rate", "80", "--tech", "4g", "--profile"}, output),
            0);
  EXPECT_NE(output.find("# Host-time profile"), std::string::npos);
  EXPECT_NE(output.find("| cli.test_run |"), std::string::npos);

  // Fleet profiles its phases on the calling thread and the pool.
  ASSERT_EQ(run({"fleet", "--days", "1", "--profile"}, output), 0);
  EXPECT_NE(output.find("# Host-time profile"), std::string::npos);
  EXPECT_NE(output.find("| workload.gen |"), std::string::npos);
  EXPECT_NE(output.find("| exec.run |"), std::string::npos);
}

TEST(Cli, TestWritesSpansAndAttributionAndAnalyzeRoundTrips) {
  const std::string dir = obs_dir("cli_spans");
  const std::string spans_path = dir + "/spans.json";
  std::string output;
  ASSERT_EQ(run({"test", "--rate", "50", "--tech", "4g", "--wire", "--seed", "7",
                 "--obs-dir", dir, "--obs", "spans"},
                output),
            0);
  EXPECT_NE(output.find("spans: " + spans_path + " ("), std::string::npos);

  const std::string spans = slurp(spans_path);
  EXPECT_NE(spans.find("\"swiftest.test\""), std::string::npos);
  EXPECT_NE(spans.find("\"swiftest.convergence\""), std::string::npos);

  // The emitted span file feeds straight back into `trace analyze`, which
  // renders the critical-path attribution as markdown...
  const std::string md_path = testing::TempDir() + "/cli_attribution.md";
  ASSERT_EQ(run({"trace", "analyze", spans_path, "--md", md_path}, output), 0);
  EXPECT_NE(output.find("attribution md: " + md_path), std::string::npos);
  const std::string md = slurp(md_path);
  EXPECT_NE(md.find("# Latency attribution"), std::string::npos);
  EXPECT_NE(md.find("swiftest.finalize"), std::string::npos);

  // ...and as JSON.
  const std::string json_path = testing::TempDir() + "/cli_attribution.json";
  ASSERT_EQ(run({"trace", "analyze", spans_path, "--json", json_path}, output),
            0);
  EXPECT_NE(output.find("attribution json: " + json_path), std::string::npos);
  const std::string json = slurp(json_path);
  EXPECT_NE(json.find("\"critical_sum_s\""), std::string::npos);
  EXPECT_NE(json.find("\"swiftest.round\""), std::string::npos);

  // With no output flags the markdown report goes to stdout.
  ASSERT_EQ(run({"trace", "analyze", spans_path}, output), 0);
  EXPECT_NE(output.find("# Latency attribution"), std::string::npos);
}

TEST(Cli, FleetWritesSpanTree) {
  // Spans come from the wire clients, so only the packet backend emits them.
  const std::string dir = obs_dir("cli_fleet_spans");
  std::string output;
  ASSERT_EQ(run({"fleet", "--backend", "packet", "--days", "1", "--tests-per-day",
                 "40", "--servers", "2", "--seed", "3", "--obs-dir", dir, "--obs",
                 "spans"},
                output),
            0);
  const std::string spans = slurp(dir + "/spans.json");
  EXPECT_NE(spans.find("\"fleet.test\""), std::string::npos);
  EXPECT_NE(spans.find("\"swiftest.test\""), std::string::npos);
  EXPECT_NE(spans.find("\"spans\""), std::string::npos);
}

TEST(Cli, TraceAnalyzeRejectsBadInvocations) {
  std::string output;
  EXPECT_EQ(run({"trace"}, output), 2);
  EXPECT_NE(output.find("usage: swiftest-cli trace analyze"), std::string::npos);
  EXPECT_EQ(run({"trace", "analyze"}, output), 2);
  EXPECT_EQ(run({"trace", "analyze", "--json", "x"}, output), 2);
  EXPECT_EQ(run({"trace", "frobnicate", "file.json"}, output), 2);

  EXPECT_EQ(run({"trace", "analyze", "/nonexistent/spans.json"}, output), 1);
  EXPECT_NE(output.find("cannot analyze"), std::string::npos);
}

TEST(Cli, LogLevelFlagMapsToObsLogLevels) {
  const obs::LogLevel before = obs::log_level();
  std::string output;
  ASSERT_EQ(run({"test", "--rate", "80", "--tech", "4g", "--log-level", "debug"},
                output),
            0);
  EXPECT_EQ(obs::log_level(), obs::LogLevel::kDebug);
  ASSERT_EQ(run({"test", "--rate", "80", "--tech", "4g", "--log-level", "error"},
                output),
            0);
  EXPECT_EQ(obs::log_level(), obs::LogLevel::kError);
  obs::set_log_level(before);

  EXPECT_EQ(run({"test", "--rate", "80", "--tech", "4g", "--log-level", "loud"},
                output),
            2);
  EXPECT_NE(output.find("unknown --log-level"), std::string::npos);
  EXPECT_EQ(obs::log_level(), before);
}

TEST(Cli, UsageDocumentsHealthFlagsAndCategories) {
  std::string output;
  EXPECT_EQ(run({"help"}, output), 0);
  EXPECT_NE(output.find("--obs-dir DIR"), std::string::npos);
  EXPECT_NE(output.find("--obs NAME[,NAME...]"), std::string::npos);
  for (const char* line : {"    health        health.json", "    report_md     report.md",
                           "    spans         spans.json"}) {
    EXPECT_NE(output.find(line), std::string::npos) << line;
  }
  EXPECT_NE(output.find("--slo"), std::string::npos);
  EXPECT_NE(output.find("--log-level"), std::string::npos);
  EXPECT_NE(output.find("trace analyze"), std::string::npos);
  EXPECT_NE(output.find(obs::kCategoryListCsv), std::string::npos);
}

TEST(Cli, FleetValidatesExecutionFlags) {
  std::string output;
  // Garbage or negative values fail loudly — these flags gate a thread pool.
  EXPECT_EQ(run({"fleet", "--days", "1", "--jobs", "zippy"}, output), 2);
  EXPECT_NE(output.find("--jobs must be an integer"), std::string::npos);
  EXPECT_NE(output.find("0 means the hardware concurrency"), std::string::npos);
  EXPECT_EQ(run({"fleet", "--days", "1", "--jobs", "-2"}, output), 2);
  EXPECT_EQ(run({"fleet", "--days", "1", "--chunk", "0"}, output), 2);
  EXPECT_NE(output.find("--chunk must be an integer >= 1"), std::string::npos);
  // The fleet's size flags go through the same strict parse: a negative
  // server count used to hang, a negative day count to throw from a vector
  // allocation, and garbage to throw from std::stol.
  EXPECT_EQ(run({"fleet", "--servers", "-3", "--days", "1", "--tests-per-day", "10"},
                output),
            2);
  EXPECT_NE(output.find("--servers must be an integer >= 1"), std::string::npos);
  EXPECT_EQ(run({"fleet", "--days", "-2"}, output), 2);
  EXPECT_NE(output.find("--days must be an integer >= 1"), std::string::npos);
  EXPECT_EQ(run({"fleet", "--servers", "abc"}, output), 2);
  EXPECT_NE(output.find("--servers must be an integer >= 1"), std::string::npos);
  // --tests-per-day is each server-day's Poisson mean: garbage, a negative
  // mean (no tests) and a NaN or huge one (the draw would hang) exit 2.
  for (const char* bad : {"abc", "-5", "1e30", "nan", "inf", "5x", ""}) {
    EXPECT_EQ(run({"fleet", "--servers", "2", "--days", "1", "--tests-per-day", bad},
                  output),
              2)
        << bad;
    EXPECT_NE(output.find("--tests-per-day must be a number in [0, 1e9]"),
              std::string::npos)
        << bad;
  }
  // --jobs 0 is valid: it means the hardware concurrency.
  EXPECT_EQ(run({"fleet", "--days", "1", "--tests-per-day", "50", "--jobs", "0"},
                output),
            0);
}

// Every numeric flag goes through one strict parse: the whole token, a
// finite value, the flag's range, else exit 2 naming the flag. Garbage used
// to exit 1 from a std::stod/std::stol exception, and `plan` printed a plan
// for "nan tests/day" or "-5 tests/day".
TEST(Cli, NumericFlagsAreStrict) {
  const std::string csv = testing::TempDir() + "/cli_strict.csv";
  const std::vector<std::string> fleet = {"fleet", "--days", "1", "--servers", "2",
                                          "--tests-per-day", "10"};
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"plan"}, "--tests-per-day"},
      {fleet, "--seed"},
      {{"campaign", "--out", csv}, "--tests"},
      {{"campaign", "--tests", "10", "--out", csv}, "--year"},
      {{"campaign", "--tests", "10", "--out", csv}, "--seed"},
      {{"test"}, "--rate"},
      {{"test", "--rate", "50"}, "--seed"},
      {{"obs", "diff", "a.jsonl", "b.jsonl"}, "--tolerance"},
  };
  std::string output;
  for (const auto& [prefix, flag] : cases) {
    for (const std::string bad : {"abc", "nan", "-5", "5x", "1e30", ""}) {
      std::vector<std::string> args = prefix;
      args.insert(args.end(), {flag, bad});
      EXPECT_EQ(run(args, output), 2) << prefix[0] << " " << flag << " '" << bad << "'";
      EXPECT_NE(output.find(flag + " must be "), std::string::npos) << output;
      EXPECT_NE(output.find("(got '" + bad + "')"), std::string::npos) << output;
    }
  }
  // In-range values still parse, up to a full 64-bit seed.
  EXPECT_EQ(run({"campaign", "--tests", "10", "--year", "2020", "--seed",
                 "18446744073709551615", "--out", csv},
                output),
            0)
      << output;
}

// The committed goldens under tests/golden pin the partition-free runtime's
// artifacts: every {--chunk, --jobs} shape must reproduce them byte for
// byte, because the execution plan is not allowed to leak into any output.
TEST(Cli, FleetRunMatchesGoldensAtAnyPartition) {
  const std::string golden_dir = SWIFTEST_GOLDEN_DIR;
  for (const auto& [chunk, jobs] :
       std::vector<std::pair<const char*, const char*>>{{"", ""}, {"32", "2"}, {"1", "4"}}) {
    const std::string tag = *chunk == '\0' ? "default" : std::string("c") + chunk;
    const std::string dir = obs_dir("cli_golden_" + tag);
    std::vector<std::string> args = {
        "fleet",  "--backend", "packet", "--servers",         "5",
        "--days", "1",         "--tests-per-day", "200",      "--seed",
        "3",      "--obs-dir", dir,      "--obs", "health,metrics,spans"};
    if (*chunk != '\0') {
      args.insert(args.end(), {"--chunk", chunk, "--jobs", jobs});
    }
    std::string output;
    ASSERT_EQ(run(args, output), 0) << tag;

    for (const char* artifact : {"health", "metrics", "spans"}) {
      EXPECT_EQ(slurp(dir + "/" + artifact + ".json"),
                slurp(golden_dir + "/fleet_day_" + artifact + ".json"))
          << tag << " " << artifact;
    }

    // The summary lines (everything before the artifact-path echoes) must
    // match the golden stdout too.
    std::istringstream lines(output);
    std::string line;
    std::string summary;
    for (int i = 0; i < 3 && std::getline(lines, line); ++i) summary += line + "\n";
    EXPECT_EQ(summary, slurp(golden_dir + "/fleet_day_stdout.txt")) << tag;
  }
}

// Host-time profiling must be pure observation: switching `--obs
// prof,prof_trace` or --profile on cannot move a single byte of the
// deterministic artifacts. (ci.sh gates the same property on a full
// fleet-day.)
TEST(Cli, ProfOutDoesNotPerturbDeterministicArtifacts) {
  const std::string kArtifacts = "health,metrics,spans,trace_chrome";
  std::string output;
  // The fleet streams its whole trace, so it is narrowed to the protocol
  // and fleet categories to keep trace.json small.
  auto fleet_args = [&](const std::string& tag, const std::string& obs) {
    return std::vector<std::string>{
        "fleet",     "--backend", "packet", "--days",   "1",
        "--tests-per-day", "200", "--servers", "4",     "--seed",
        "9",         "--chunk",   "64",     "--jobs",   "2",
        "--trace-categories", "protocol,fleet",
        "--obs-dir", obs_dir("cli_prof_" + tag), "--obs", obs};
  };
  ASSERT_EQ(run(fleet_args("off", kArtifacts), output), 0);

  ASSERT_EQ(run(fleet_args("on", kArtifacts + ",prof,prof_trace"), output), 0);
  EXPECT_NE(output.find("prof: " + obs_dir("cli_prof_on") + "/prof.jsonl"),
            std::string::npos);
  EXPECT_NE(output.find("prof_trace: " + obs_dir("cli_prof_on") + "/prof_trace.json"),
            std::string::npos);

  auto with_profile = fleet_args("profile", kArtifacts);
  with_profile.push_back("--profile");
  ASSERT_EQ(run(with_profile, output), 0);
  EXPECT_NE(output.find("# Host-time profile"), std::string::npos);

  for (const char* artifact : {"health", "metrics", "spans", "trace"}) {
    const std::string file = std::string("/") + artifact + ".json";
    const std::string off = slurp(obs_dir("cli_prof_off") + file);
    ASSERT_GT(off.size(), 0u) << artifact;
    EXPECT_EQ(off, slurp(obs_dir("cli_prof_on") + file)) << artifact;
    EXPECT_EQ(off, slurp(obs_dir("cli_prof_profile") + file)) << artifact;
  }
  // --jobs and --chunk are wall-clock-only: the health report never names
  // either.
  const std::string health = slurp(obs_dir("cli_prof_off") + "/health.json");
  EXPECT_EQ(health.find("jobs"), std::string::npos);
  EXPECT_EQ(health.find("chunk"), std::string::npos);
}

TEST(Cli, ProfileReportFromFleetRun) {
  const std::string prof_path = obs_dir("cli_prof") + "/prof.jsonl";
  std::string output;
  ASSERT_EQ(run({"fleet", "--days", "1", "--tests-per-day", "300", "--chunk", "64",
                 "--jobs", "2", "--obs-dir", obs_dir("cli_prof"), "--obs", "prof"},
                output),
            0);

  ASSERT_EQ(run({"profile", "report", prof_path}, output), 0);
  EXPECT_NE(output.find("# Host-time profile"), std::string::npos);
  EXPECT_NE(output.find("serial fraction:"), std::string::npos);
  EXPECT_NE(output.find("## Phases"), std::string::npos);
  EXPECT_NE(output.find("## Workers"), std::string::npos);
  EXPECT_NE(output.find("exec.run"), std::string::npos);

  // --md writes the report to a file instead of stdout.
  const std::string md_path = testing::TempDir() + "/cli_prof_report.md";
  ASSERT_EQ(run({"profile", "report", prof_path, "--md", md_path}, output), 0);
  EXPECT_NE(output.find("profile report: " + md_path), std::string::npos);
  EXPECT_NE(slurp(md_path).find("# Host-time profile"), std::string::npos);
}

TEST(Cli, ProfileReportRejectsBadInvocations) {
  std::string output;
  EXPECT_EQ(run({"profile"}, output), 2);
  EXPECT_NE(output.find("usage: swiftest-cli profile report"), std::string::npos);
  EXPECT_EQ(run({"profile", "report"}, output), 2);
  EXPECT_EQ(run({"profile", "frobnicate", "file.jsonl"}, output), 2);

  EXPECT_EQ(run({"profile", "report", "/nonexistent/prof.jsonl"}, output), 1);
  EXPECT_NE(output.find("cannot analyze"), std::string::npos);
}

TEST(Cli, UsageDocumentsHostProfiling) {
  std::string output;
  EXPECT_EQ(run({"help"}, output), 0);
  EXPECT_NE(output.find("    prof          prof.jsonl"), std::string::npos);
  EXPECT_NE(output.find("    prof_trace    prof_trace.json"), std::string::npos);
  EXPECT_NE(output.find("profile  report FILE"), std::string::npos);
}

TEST(Cli, UsageDocumentsManifestsAndDiff) {
  std::string output;
  EXPECT_EQ(run({"help"}, output), 0);
  EXPECT_NE(output.find("DIR/manifest.jsonl"), std::string::npos);
  EXPECT_NE(output.find("obs      diff"), std::string::npos);
  EXPECT_NE(output.find("4 diff regression"), std::string::npos);
}

TEST(Cli, TestCommandWritesManifest) {
  const std::string dir = obs_dir("cli_test_manifest");
  const std::string manifest_path = dir + "/manifest.jsonl";
  std::string output;
  ASSERT_EQ(run({"test", "--tech", "wifi5", "--rate", "60", "--seed", "7",
                 "--obs-dir", dir, "--obs", "metrics"},
                output),
            0);
  EXPECT_NE(output.find("manifest: " + manifest_path), std::string::npos);
  const std::string text = slurp(manifest_path);
  EXPECT_NE(text.find("\"type\":\"manifest\""), std::string::npos);
  EXPECT_NE(text.find("\"command\":\"test\""), std::string::npos);
  EXPECT_NE(text.find("\"key\":\"seed\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"estimate_mbps\""), std::string::npos);
}

TEST(Cli, FleetManifestAlwaysLandsInObsDir) {
  // DIR is created when missing, and DIR/manifest.jsonl is written on every
  // run that names DIR, listing each artifact under its --obs name.
  const std::string dir = obs_dir("cli_mf") + "/nested/run";
  std::string output;
  ASSERT_EQ(run({"fleet", "--days", "1", "--tests-per-day", "200", "--seed",
                 "5", "--obs-dir", dir, "--obs", "health"},
                output),
            0);
  const std::string manifest_path = dir + "/manifest.jsonl";
  EXPECT_NE(output.find("manifest: " + manifest_path), std::string::npos);
  const std::string text = slurp(manifest_path);
  EXPECT_NE(text.find("\"command\":\"fleet\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"health\",\"path\":\"" + dir + "/health.json\""),
            std::string::npos);
  EXPECT_NE(text.find("\"hash\":\"fnv1a64:"), std::string::npos);
}

// The manifest records each artifact as its writer digested it while the
// bytes went out; those records must equal a digest of the file on disk.
TEST(Cli, ManifestArtifactsMatchTheFilesOnDisk) {
  const std::string dir = obs_dir("cli_digest");
  const std::vector<std::vector<std::string>> runs = {
      {"test", "--rate", "50", "--wire", "--profile", "--obs",
       "trace_chrome,trace_jsonl,metrics,spans,health,report_md"},
      {"fleet", "--backend", "packet", "--servers", "2", "--days", "1", "--tests-per-day",
       "20", "--jobs", "2", "--trace-categories", "protocol,fleet", "--obs",
       "trace_chrome,trace_jsonl,metrics,spans,health,report_md,prof,prof_trace"},
  };
  for (std::vector<std::string> args : runs) {
    std::filesystem::remove_all(dir);
    args.insert(args.end(), {"--obs-dir", dir});
    std::string output;
    ASSERT_EQ(run(args, output), 0) << output;
    std::string error;
    const auto manifest = obs::manifest::load_manifest_file(dir + "/manifest.jsonl", &error);
    ASSERT_TRUE(manifest.has_value()) << error;
    EXPECT_EQ(manifest->artifacts.size(), args[0] == "test" ? 6u : 8u) << args[0];
    for (const obs::manifest::ArtifactRecord& artifact : manifest->artifacts) {
      std::ifstream file(artifact.path, std::ios::binary);
      ASSERT_TRUE(file) << artifact.path;
      const std::string bytes{std::istreambuf_iterator<char>(file), {}};
      obs::manifest::ArtifactDigest digest;
      digest.update(bytes);
      const obs::manifest::ArtifactRecord disk = digest.record(artifact.name, artifact.path);
      EXPECT_GT(disk.bytes, 0u) << artifact.name;
      EXPECT_EQ(artifact.bytes, disk.bytes) << artifact.name;
      EXPECT_EQ(artifact.rows, disk.rows) << artifact.name;
      EXPECT_EQ(artifact.hash, disk.hash) << artifact.name;
    }
    // --profile records the host-time summary for both commands.
    EXPECT_NE(manifest->find_summary("hostprof"), nullptr) << args[0];
  }
  std::filesystem::remove_all(dir);
}

// An artifact that cannot be opened for writing fails the run with exit 1,
// naming the path: here each one's path is taken by a directory.
TEST(Cli, UnwritableArtifactPathFailsTheRun) {
  const std::string dir = obs_dir("cli_unwritable");
  for (const auto& [name, file] : {std::pair{"health", "health.json"},
                                   {"trace_jsonl", "trace.jsonl"}}) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/" + file);
    std::string output;
    EXPECT_EQ(run({"test", "--rate", "50", "--obs-dir", dir, "--obs", name}, output), 1)
        << name;
    EXPECT_NE(output.find("cannot write " + dir + "/" + file), std::string::npos) << output;
  }
  std::filesystem::remove_all(dir);
}

// Every command rejects option keys it does not accept, so a typo or a
// retired per-artifact flag fails loudly instead of silently writing nothing.
TEST(Cli, RejectsUnknownAndRemovedFlags) {
  std::string output;
  EXPECT_EQ(run({"fleet", "--days", "1", "--tests-per-day", "50", "--helth-out",
                 "x.json"},
                output),
            2);
  EXPECT_NE(output.find("unknown option --helth-out for fleet"), std::string::npos)
      << output;
  EXPECT_NE(output.find("--obs-dir"), std::string::npos) << output;
  for (const char* removed : {"--health-out", "--manifest-out", "--no-manifest",
                              "--obs-spill-dir", "--attribution-md", "--obs-budget-mb"}) {
    EXPECT_EQ(run({"fleet", "--days", "1", removed, "1"}, output), 2) << removed;
    EXPECT_NE(output.find(std::string("unknown option ") + removed),
              std::string::npos)
        << output;
  }
  EXPECT_EQ(run({"run", "--rate", "50", "--trace-out", "x.json"}, output), 2);
  EXPECT_NE(output.find("unknown option --trace-out for run"), std::string::npos);
  // A fleet-only key on test, and a stray key on a subcommand.
  EXPECT_EQ(run({"test", "--rate", "50", "--jobs", "2"}, output), 2);
  EXPECT_EQ(run({"plan", "--regionl"}, output), 2);
  EXPECT_EQ(run({"trace", "analyze", "spans.json", "--markdown", "x.md"}, output), 2);
  EXPECT_NE(output.find("unknown option --markdown for trace"), std::string::npos);
}

TEST(Cli, ObsFlagsNeedEachOtherAndAProducibleName) {
  const std::string dir = obs_dir("cli_obs_usage");
  std::string output;
  EXPECT_EQ(run({"fleet", "--days", "1", "--obs", "health"}, output), 2);
  EXPECT_NE(output.find("--obs-dir and --obs go together"), std::string::npos);
  EXPECT_NE(output.find("prof, prof_trace)"), std::string::npos) << output;
  EXPECT_EQ(run({"fleet", "--days", "1", "--obs-dir", dir}, output), 2);
  EXPECT_EQ(run({"fleet", "--days", "1", "--obs-dir", dir, "--obs", "health,helth"},
                output),
            2);
  EXPECT_NE(output.find("unknown --obs name 'helth' for fleet"), std::string::npos);
  // The retired spill name is gone for fleets too.
  EXPECT_EQ(run({"fleet", "--days", "1", "--obs-dir", dir, "--obs", "spill"}, output), 2);
  EXPECT_NE(output.find("unknown --obs name 'spill' for fleet"), std::string::npos);
  // A single test has no host-time profile artifacts.
  for (const char* name : {"prof", "prof_trace"}) {
    EXPECT_EQ(run({"test", "--rate", "50", "--obs-dir", dir, "--obs", name}, output),
              2)
        << name;
    EXPECT_NE(output.find("(valid: trace_chrome, trace_jsonl, metrics, spans, "
                          "health, report_md)"),
              std::string::npos)
        << output;
  }
}

TEST(Cli, ObsDiffVerdictsAndExitCodes) {
  const std::string dir = testing::TempDir();
  std::string output;
  // Two identical-seed fleet-days and one perturbed-seed run.
  for (const auto& [tag, seed] : {std::pair<const char*, const char*>{"a", "9"},
                                  {"b", "9"},
                                  {"c", "10"}}) {
    ASSERT_EQ(run({"fleet", "--days", "1", "--tests-per-day", "300", "--seed",
                   seed, "--obs-dir", dir + "/cli_diff_" + tag, "--obs", "health"},
                  output),
              0);
  }

  // Same seed: semantically identical, even under --expect-identical.
  EXPECT_EQ(run({"obs", "diff", dir + "/cli_diff_a/manifest.jsonl",
                 dir + "/cli_diff_b/manifest.jsonl", "--expect-identical"},
                output),
            0);
  EXPECT_NE(output.find("diff: identical"), std::string::npos);

  // Perturbed seed: regression, exit 4, JSON report written.
  const std::string json_path = dir + "/cli_diff.json";
  EXPECT_EQ(run({"obs", "diff", dir + "/cli_diff_a/manifest.jsonl",
                 dir + "/cli_diff_c/manifest.jsonl", "--json", json_path},
                output),
            4);
  EXPECT_NE(output.find("DIFF REGRESSION"), std::string::npos);
  EXPECT_NE(slurp(json_path).find("\"regressions\""), std::string::npos);

  // Usage and file errors keep their own exit codes.
  EXPECT_EQ(run({"obs", "diff", "only-one.jsonl"}, output), 2);
  EXPECT_EQ(run({"obs", "diff", "/nonexistent/a.jsonl",
                 dir + "/cli_diff_b/manifest.jsonl"},
                output),
            1);
  EXPECT_EQ(run({"obs", "frobnicate"}, output), 2);
}

}  // namespace
}  // namespace swiftest::cli
