#include "obs/health/slo.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace swiftest::obs::health {
namespace {

HealthSnapshot snapshot_with_tests() {
  HealthMonitor monitor;
  const std::vector<std::string> tech4g = {"tech:4g"};
  for (int i = 0; i < 200; ++i) {
    TestSample sample;
    sample.duration_s = 1.0 + 0.001 * i;
    sample.data_mb = 20.0;
    sample.deviation = 0.04;
    sample.dimensions = tech4g;
    monitor.record_test(sample);
  }
  monitor.record_egress_utilization(0, 30.0);
  monitor.record_egress_utilization(1, 80.0);
  return monitor.snapshot();
}

// ------------------------------------------------------------ JSON parser

TEST(Json, ParsesScalarsArraysObjects) {
  std::string error;
  const auto doc = parse_json(
      R"({"a": 1.5, "b": "x\n\"y\"", "c": [true, false, null], "d": {"e": -2e3}})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_DOUBLE_EQ(doc->get_number("a", 0.0), 1.5);
  EXPECT_EQ(doc->get_string("b", ""), "x\n\"y\"");
  ASSERT_NE(doc->get("c"), nullptr);
  ASSERT_EQ(doc->get("c")->as_array().size(), 3u);
  EXPECT_TRUE(doc->get("c")->as_array()[0].as_bool());
  ASSERT_NE(doc->get("d"), nullptr);
  EXPECT_DOUBLE_EQ(doc->get("d")->get_number("e", 0.0), -2000.0);
}

TEST(Json, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\": }", &error).has_value());
  EXPECT_FALSE(parse_json("[1, 2,]", &error).has_value());
  EXPECT_FALSE(parse_json("{} trailing", &error).has_value());
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------ spec parsing

TEST(SloSpecs, ParsesFullSpec) {
  const auto specs = parse_slo_specs(R"({"slos": [
    {"name": "dev", "metric": "deviation", "stat": "mean",
     "dimension": "all", "max": 0.1, "min_samples": 50},
    {"name": "vol", "metric": "duration_s", "stat": "count", "min": 10}
  ]})");
  ASSERT_TRUE(specs.has_value());
  ASSERT_EQ(specs->size(), 2u);
  EXPECT_EQ((*specs)[0].name, "dev");
  EXPECT_EQ((*specs)[0].stat, "mean");
  ASSERT_TRUE((*specs)[0].max_value.has_value());
  EXPECT_DOUBLE_EQ(*(*specs)[0].max_value, 0.1);
  EXPECT_EQ((*specs)[0].min_samples, 50u);
  // Defaults: stat p95, dimension "all", min_samples 1.
  EXPECT_EQ((*specs)[1].stat, "count");
  EXPECT_EQ((*specs)[1].dimension, "all");
  EXPECT_EQ((*specs)[1].min_samples, 1u);
  ASSERT_TRUE((*specs)[1].min_value.has_value());
}

TEST(SloSpecs, RejectsIncompleteSpecs) {
  std::string error;
  // No threshold at all.
  EXPECT_FALSE(
      parse_slo_specs(R"({"slos": [{"name": "x", "metric": "m"}]})", &error)
          .has_value());
  EXPECT_NE(error.find("max"), std::string::npos);
  // Missing name.
  EXPECT_FALSE(parse_slo_specs(R"({"slos": [{"metric": "m", "max": 1}]})")
                   .has_value());
  // Not an object document / missing "slos".
  EXPECT_FALSE(parse_slo_specs("[1,2]").has_value());
  EXPECT_FALSE(parse_slo_specs("{\"objectives\": []}").has_value());
  // Malformed JSON.
  EXPECT_FALSE(parse_slo_specs("{]", &error).has_value());
  // min_samples must be a whole number a double holds exactly: a negative,
  // fractional or huge value is rejected with a reason, never cast.
  for (const char* bad : {"-1", "1e30", "2.5", "9007199254740994", "\"5\"", "null"}) {
    error.clear();
    EXPECT_FALSE(parse_slo_specs(std::string(R"({"slos": [{"name": "x", "metric": "m",
                                              "max": 1, "min_samples": )") +
                                     bad + "}]}",
                                 &error)
                     .has_value())
        << bad;
    EXPECT_NE(error.find("min_samples"), std::string::npos) << bad << ": " << error;
  }
  const auto edge = parse_slo_specs(
      R"({"slos": [{"name": "x", "metric": "m", "max": 1, "min_samples": 9007199254740992}]})");
  ASSERT_TRUE(edge.has_value());
  EXPECT_EQ((*edge)[0].min_samples, 9007199254740992u);
}

// Every byte prefix of the shipped spec either parses or fails with a
// reason: a truncated spec file can never crash or read out of bounds (the
// ASan/UBSan suite runs this too).
TEST(SloSpecs, EveryPrefixParsesOrFailsCleanly) {
  std::string error;
  const auto text = read_file(SWIFTEST_SLO_DEFAULT_PATH, &error);
  ASSERT_TRUE(text.has_value()) << error;
  ASSERT_TRUE(parse_slo_specs(*text).has_value());
  for (std::size_t n = 0; n < text->size(); ++n) {
    error.clear();
    if (!parse_slo_specs(std::string_view(*text).substr(0, n), &error).has_value()) {
      EXPECT_FALSE(error.empty()) << "prefix of " << n << " bytes";
    }
  }
}

TEST(SloSpecs, LoadsFromFileAndReportsMissingFile) {
  const std::string path = testing::TempDir() + "/slo_spec.json";
  {
    std::ofstream out(path);
    out << R"({"slos": [{"name": "n", "metric": "m", "max": 1}]})";
  }
  const auto specs = load_slo_file(path);
  ASSERT_TRUE(specs.has_value());
  EXPECT_EQ(specs->size(), 1u);

  std::string error;
  EXPECT_FALSE(load_slo_file("/nonexistent/slo.json", &error).has_value());
  EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------------ evaluation

SloSpec make_spec(std::string metric, std::string stat, std::string dimension,
                  std::optional<double> max, std::optional<double> min = {},
                  std::uint64_t min_samples = 1) {
  SloSpec spec;
  spec.name = metric + "-" + stat;
  spec.metric = std::move(metric);
  spec.stat = std::move(stat);
  spec.dimension = std::move(dimension);
  spec.max_value = max;
  spec.min_value = min;
  spec.min_samples = min_samples;
  return spec;
}

TEST(SloEval, PassAndViolate) {
  const auto snap = snapshot_with_tests();
  const auto eval = evaluate_slos(
      {make_spec("deviation", "mean", "all", 0.10),
       make_spec("deviation", "mean", "all", 0.01)},  // breached: mean 0.04
      snap);
  ASSERT_EQ(eval.results.size(), 2u);
  EXPECT_EQ(eval.results[0].status, SloStatus::kPass);
  EXPECT_EQ(eval.results[1].status, SloStatus::kViolated);
  EXPECT_DOUBLE_EQ(eval.results[1].observed, 0.04);
  EXPECT_EQ(eval.violations(), 1u);
  EXPECT_FALSE(eval.ok());
}

TEST(SloEval, MinThresholdAndCountStat) {
  const auto snap = snapshot_with_tests();
  const auto eval = evaluate_slos(
      {make_spec("duration_s", "count", "all", {}, 100.0),
       make_spec("duration_s", "count", "all", {}, 10'000.0)},
      snap);
  EXPECT_EQ(eval.results[0].status, SloStatus::kPass);
  EXPECT_EQ(eval.results[1].status, SloStatus::kViolated);
}

TEST(SloEval, MinSamplesSkipsThinCells) {
  const auto snap = snapshot_with_tests();
  // server:0 has one egress sample; requiring 100 skips rather than fails.
  const auto eval = evaluate_slos(
      {make_spec("egress_util", "max", "server:0", 1.0, {}, 100)}, snap);
  ASSERT_EQ(eval.results.size(), 1u);
  EXPECT_EQ(eval.results[0].status, SloStatus::kSkipped);
  EXPECT_TRUE(eval.ok());
}

TEST(SloEval, MissingCellIsViolated) {
  const auto snap = snapshot_with_tests();
  const auto eval =
      evaluate_slos({make_spec("deviation", "mean", "tech:5g", 0.5)}, snap);
  ASSERT_EQ(eval.results.size(), 1u);
  EXPECT_EQ(eval.results[0].status, SloStatus::kViolated);
  EXPECT_EQ(eval.results[0].samples, 0u);
}

TEST(SloEval, WildcardExpandsPerMatchingCell) {
  const auto snap = snapshot_with_tests();
  const auto eval =
      evaluate_slos({make_spec("egress_util", "max", "server:*", 50.0)}, snap);
  // Two servers recorded; server:1 at 80% breaches the 50% cap.
  ASSERT_EQ(eval.results.size(), 2u);
  EXPECT_EQ(eval.results[0].dimension, "server:0");
  EXPECT_EQ(eval.results[0].status, SloStatus::kPass);
  EXPECT_EQ(eval.results[1].dimension, "server:1");
  EXPECT_EQ(eval.results[1].status, SloStatus::kViolated);
}

TEST(SloEval, WildcardWithNoMatchIsViolated) {
  const auto snap = snapshot_with_tests();
  const auto eval =
      evaluate_slos({make_spec("egress_util", "max", "isp:*", 50.0)}, snap);
  ASSERT_EQ(eval.results.size(), 1u);
  EXPECT_EQ(eval.results[0].status, SloStatus::kViolated);
}

TEST(SloEval, UnknownStatIsViolated) {
  const auto snap = snapshot_with_tests();
  const auto eval =
      evaluate_slos({make_spec("deviation", "p42", "all", 0.5)}, snap);
  EXPECT_EQ(eval.results[0].status, SloStatus::kViolated);
}

TEST(SloEval, StatValueCoversAllNames) {
  AggregateStats stats;
  stats.count = 10;
  stats.sum = 20.0;
  stats.mean = 2.0;
  stats.min = 1.0;
  stats.max = 3.0;
  stats.p50 = 2.0;
  stats.p95 = 2.9;
  stats.p99 = 2.99;
  EXPECT_DOUBLE_EQ(*stat_value(stats, "count"), 10.0);
  EXPECT_DOUBLE_EQ(*stat_value(stats, "sum"), 20.0);
  EXPECT_DOUBLE_EQ(*stat_value(stats, "mean"), 2.0);
  EXPECT_DOUBLE_EQ(*stat_value(stats, "min"), 1.0);
  EXPECT_DOUBLE_EQ(*stat_value(stats, "max"), 3.0);
  EXPECT_DOUBLE_EQ(*stat_value(stats, "p50"), 2.0);
  EXPECT_DOUBLE_EQ(*stat_value(stats, "median"), 2.0);
  EXPECT_DOUBLE_EQ(*stat_value(stats, "p95"), 2.9);
  EXPECT_DOUBLE_EQ(*stat_value(stats, "p99"), 2.99);
  EXPECT_FALSE(stat_value(stats, "p42").has_value());
}

}  // namespace
}  // namespace swiftest::obs::health
