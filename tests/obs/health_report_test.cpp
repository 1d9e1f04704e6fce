#include "obs/health/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/json.hpp"

namespace swiftest::obs::health {
namespace {

HealthSnapshot sample_snapshot() {
  HealthMonitor monitor;
  const std::vector<std::string> dims = {"tech:4g", "server:1"};
  for (int i = 0; i < 300; ++i) {
    TestSample sample;
    sample.duration_s = 1.0 + 0.01 * (i % 50);
    sample.data_mb = 15.0 + static_cast<double>(i % 7);
    sample.deviation = 0.02;
    sample.dimensions = dims;
    monitor.note_arrival(static_cast<double>(i));
    monitor.record_test(sample);
  }
  monitor.record_egress_utilization(1, 25.0);
  return monitor.snapshot();
}

ReportMeta sample_meta() {
  return {{"command", "fleet"}, {"seed", "99"}};
}

TEST(HealthReport, JsonIsParseableAndComplete) {
  const auto snap = sample_snapshot();
  std::ostringstream out;
  write_health_json(snap, sample_meta(), nullptr, out);

  std::string error;
  const auto doc = parse_json(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_DOUBLE_EQ(doc->get_number("tests", 0.0), 300.0);
  EXPECT_EQ(doc->get("meta")->get_string("command", ""), "fleet");
  const auto* metrics = doc->get("metrics");
  ASSERT_NE(metrics, nullptr);
  for (const char* metric :
       {kMetricDuration, kMetricDataUsage, kMetricDeviation, kMetricEgressUtil}) {
    const auto* cells = metrics->get(metric);
    ASSERT_NE(cells, nullptr) << metric;
    ASSERT_NE(cells->get("all"), nullptr) << metric;
  }
  const auto* duration_all = metrics->get(kMetricDuration)->get("all");
  EXPECT_DOUBLE_EQ(duration_all->get_number("count", 0.0), 300.0);
  EXPECT_GT(duration_all->get_number("p95", 0.0), 1.0);
  // No evaluation supplied => no "slo" section.
  EXPECT_EQ(doc->get("slo"), nullptr);
}

TEST(HealthReport, JsonIncludesSloSection) {
  const auto snap = sample_snapshot();
  SloSpec spec;
  spec.name = "dev";
  spec.metric = kMetricDeviation;
  spec.stat = "mean";
  spec.max_value = 0.1;
  const auto eval = evaluate_slos({spec}, snap);
  std::ostringstream out;
  write_health_json(snap, sample_meta(), &eval, out);

  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  const auto* slo = doc->get("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_DOUBLE_EQ(slo->get_number("evaluated", 0.0), 1.0);
  EXPECT_DOUBLE_EQ(slo->get_number("violations", -1.0), 0.0);
  const auto* results = slo->get("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->as_array().size(), 1u);
  EXPECT_EQ(results->as_array()[0].get_string("status", ""), "pass");
}

TEST(HealthReport, ByteIdenticalForIdenticalInputs) {
  // Two monitors fed the same observation stream must render the same bytes
  // (JSON and markdown) — the CI determinism contract.
  std::ostringstream a_json, b_json, a_md, b_md;
  write_health_json(sample_snapshot(), sample_meta(), nullptr, a_json);
  write_health_json(sample_snapshot(), sample_meta(), nullptr, b_json);
  write_health_markdown(sample_snapshot(), sample_meta(), nullptr, a_md);
  write_health_markdown(sample_snapshot(), sample_meta(), nullptr, b_md);
  EXPECT_EQ(a_json.str(), b_json.str());
  EXPECT_EQ(a_md.str(), b_md.str());
}

TEST(HealthReport, EmptySnapshotRendersValidJson) {
  HealthMonitor monitor;
  std::ostringstream out;
  write_health_json(monitor.snapshot(), {}, nullptr, out);
  std::string error;
  const auto doc = parse_json(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_DOUBLE_EQ(doc->get_number("tests", -1.0), 0.0);
}

TEST(HealthReport, MarkdownHasHeaderTablesAndVerdict) {
  const auto snap = sample_snapshot();
  SloSpec spec;
  spec.name = "dev";
  spec.metric = kMetricDeviation;
  spec.stat = "mean";
  spec.max_value = 0.001;  // violated: mean is 0.02
  const auto eval = evaluate_slos({spec}, snap);
  std::ostringstream out;
  write_health_markdown(snap, sample_meta(), &eval, out);
  const std::string md = out.str();
  EXPECT_NE(md.find("# Fleet health report"), std::string::npos);
  EXPECT_NE(md.find("## Operational signals"), std::string::npos);
  EXPECT_NE(md.find("| duration_s | all |"), std::string::npos);
  EXPECT_NE(md.find("| duration_s | tech:4g |"), std::string::npos);
  EXPECT_NE(md.find("## SLO gate"), std::string::npos);
  EXPECT_NE(md.find("violated"), std::string::npos);
  EXPECT_NE(md.find("1 violation(s)"), std::string::npos);
}

}  // namespace
}  // namespace swiftest::obs::health
