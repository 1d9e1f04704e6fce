// Edge cases of the obs exporters: empty inputs, overflow buckets, and
// non-finite gauges must all render parseable JSON (validated with the
// in-tree parser, which rejects bare `nan`/`inf` tokens like any conforming
// reader would).
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "obs/span/json.hpp"

namespace swiftest::obs {
namespace {

TEST(ExportEdge, EmptyTracerRendersValidJson) {
  Tracer tracer;
  std::ostringstream chrome, jsonl;
  write_chrome_trace(tracer, chrome);
  write_trace_jsonl(tracer, jsonl);
  std::string error;
  const auto doc = parse_json(chrome.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_NE(doc->get("traceEvents"), nullptr);
  EXPECT_TRUE(doc->get("traceEvents")->as_array().empty());
  EXPECT_TRUE(jsonl.str().empty());
}

TEST(ExportEdge, EmptyRegistryRendersValidJson) {
  MetricsRegistry registry;
  std::ostringstream out;
  write_metrics_json(registry.snapshot(), out);
  std::string error;
  const auto doc = parse_json(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_NE(doc->get("counters"), nullptr);
  ASSERT_NE(doc->get("gauges"), nullptr);
  ASSERT_NE(doc->get("histograms"), nullptr);
}

TEST(ExportEdge, HistogramOverflowBucketIsExported) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("latency", {1.0, 10.0});
  histogram.observe(0.5);    // bucket 0
  histogram.observe(5.0);    // bucket 1
  histogram.observe(100.0);  // overflow bucket
  histogram.observe(1e12);   // still the overflow bucket
  std::ostringstream out;
  write_metrics_json(registry.snapshot(), out);

  const auto doc = parse_json(out.str());
  ASSERT_TRUE(doc.has_value());
  const auto* latency = doc->get("histograms")->get("latency");
  ASSERT_NE(latency, nullptr);
  const auto& counts = latency->get("counts")->as_array();
  // bounds.size() + 1 buckets: the last one catches everything above 10.
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_DOUBLE_EQ(counts[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(counts[1].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(counts[2].as_number(), 2.0);
  EXPECT_DOUBLE_EQ(latency->get_number("count", 0.0), 4.0);
}

TEST(ExportEdge, NonFiniteGaugesRenderQuotedStrings) {
  MetricsRegistry registry;
  registry.gauge("nan_gauge").set(std::numeric_limits<double>::quiet_NaN());
  registry.gauge("pos_inf").set(std::numeric_limits<double>::infinity());
  registry.gauge("neg_inf").set(-std::numeric_limits<double>::infinity());
  registry.gauge("finite").set(1.25);
  std::ostringstream out;
  write_metrics_json(registry.snapshot(), out);
  const std::string json = out.str();

  // Bare nan/inf tokens are invalid JSON; quoted sentinels must appear.
  EXPECT_EQ(json.find("nan,"), std::string::npos);
  EXPECT_EQ(json.find(": inf"), std::string::npos);
  EXPECT_NE(json.find("\"NaN\""), std::string::npos);
  EXPECT_NE(json.find("\"Infinity\""), std::string::npos);
  EXPECT_NE(json.find("\"-Infinity\""), std::string::npos);

  std::string error;
  const auto doc = parse_json(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->get("gauges")->get("nan_gauge")->as_string(), "NaN");
  EXPECT_DOUBLE_EQ(doc->get("gauges")->get_number("finite", 0.0), 1.25);
}

TEST(ExportEdge, NonFiniteHistogramSumStaysParseable) {
  MetricsRegistry registry;
  auto& histogram = registry.histogram("h", {1.0});
  histogram.observe(std::numeric_limits<double>::infinity());
  std::ostringstream out;
  write_metrics_json(registry.snapshot(), out);
  std::string error;
  EXPECT_TRUE(parse_json(out.str(), &error).has_value()) << error;
}

TEST(JsonUtil, AppendDoubleShortestRoundTrip) {
  std::string out;
  append_double(out, 0.1);
  out += " ";
  append_double(out, -3.0);
  EXPECT_EQ(out, "0.1 -3");
}

TEST(JsonUtil, EscapesControlCharacters) {
  std::string out;
  append_json_string(out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\"");
}

// A streamed artifact is written progressively, so a killed run leaves a
// prefix of it on disk: every proper prefix must be refused with a reason,
// never parsed into a partial result or a crash.
TEST(StreamedArtifacts, EveryPrefixFailsCleanly) {
  std::ostringstream doc;
  span::SpanWriter writer(&doc);
  span::SpanRecord record;
  record.id = 1;
  record.trace_id = 18'446'744'073'709'551'557ull;
  record.name = "fleet.test";
  record.category = Category::kFleet;
  record.start = 314'000'000'000;
  record.end = 314'832'444'416;
  record.closed = true;
  record.attr_count = 2;
  record.attrs[0] = {"truth_mbps", span::SpanAttr::Type::kF64, 16.647273704929656, 0};
  record.attrs[1] = {"server", span::SpanAttr::Type::kU64, 0.0, 3};
  writer.write(record);
  record.id = 2;
  record.parent = 1;
  record.closed = false;
  record.attr_count = 0;
  writer.write(record);
  writer.finish(0);
  const std::string spans = doc.str();
  ASSERT_TRUE(span::parse_spans_json(spans));
  // The document ends "}\n": every prefix short of its closing brace is cut.
  for (std::size_t n = 0; n + 1 < spans.size(); ++n) {
    std::string error;
    EXPECT_FALSE(span::parse_spans_json(std::string_view(spans).substr(0, n), &error))
        << "prefix of " << n << " bytes";
    EXPECT_FALSE(error.empty()) << "prefix of " << n << " bytes";
  }

  std::ostringstream jsonl;
  TraceWriter trace(&jsonl, nullptr);
  trace.write({314'000'000'000, Category::kLink, EventKind::kCounter, "link.queue_bytes",
               18'446'744'073'709'551'557ull, 0.1});
  trace.finish();
  const std::string line = jsonl.str().substr(0, jsonl.str().size() - 1);
  ASSERT_TRUE(parse_json(line));
  for (std::size_t n = 0; n < line.size(); ++n) {
    std::string error;
    EXPECT_FALSE(parse_json(std::string_view(line).substr(0, n), &error))
        << "prefix of " << n << " bytes";
    EXPECT_FALSE(error.empty()) << "prefix of " << n << " bytes";
  }
}

}  // namespace
}  // namespace swiftest::obs
