#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "obs/export.hpp"

namespace swiftest::obs {
namespace {

TEST(Tracer, RecordsEventsOldestFirst) {
  Tracer tracer(8);
  tracer.record(10, Category::kScheduler, EventKind::kInstant, "a", 1, 0.5);
  tracer.record(20, Category::kLink, EventKind::kCounter, "b", 2, 1.5);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 10);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[1].ts, 20);
  EXPECT_EQ(events[1].id, 2u);
  EXPECT_DOUBLE_EQ(events[1].value, 1.5);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, RingWrapsAndDropsOldest) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(i, Category::kScheduler, EventKind::kInstant, "tick",
                  static_cast<std::uint64_t>(i), 0.0);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // The four youngest survive, oldest first.
  EXPECT_EQ(events[0].ts, 6);
  EXPECT_EQ(events[3].ts, 9);
}

TEST(Tracer, CategoryMaskFilters) {
  Tracer tracer(8);
  tracer.set_category_mask(static_cast<std::uint32_t>(Category::kProtocol));
  EXPECT_TRUE(tracer.wants(Category::kProtocol));
  EXPECT_FALSE(tracer.wants(Category::kScheduler));
  EXPECT_FALSE(tracer.wants(Category::kLink));
  EXPECT_FALSE(tracer.wants(Category::kTransport));
  EXPECT_FALSE(tracer.wants(Category::kFleet));
  tracer.set_category_mask(kAllCategories);
  for (auto c : {Category::kScheduler, Category::kLink, Category::kTransport,
                 Category::kProtocol, Category::kFleet}) {
    EXPECT_TRUE(tracer.wants(c)) << to_string(c);
  }
}

TEST(Tracer, ClearResetsState) {
  Tracer tracer(2);
  for (int i = 0; i < 5; ++i) {
    tracer.record(i, Category::kLink, EventKind::kInstant, "x", 0, 0.0);
  }
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, ZeroCapacityIsClampedToOne) {
  Tracer tracer(0);
  tracer.record(1, Category::kScheduler, EventKind::kInstant, "only", 0, 0.0);
  EXPECT_EQ(tracer.capacity(), 1u);
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(ParseCategoryMask, NamesAndAll) {
  EXPECT_EQ(parse_category_mask("all"), kAllCategories);
  EXPECT_EQ(parse_category_mask("scheduler"),
            static_cast<std::uint32_t>(Category::kScheduler));
  EXPECT_EQ(parse_category_mask("link,protocol"),
            (static_cast<std::uint32_t>(Category::kLink) |
             static_cast<std::uint32_t>(Category::kProtocol)));
  EXPECT_EQ(parse_category_mask("scheduler,link,transport,protocol,fleet"),
            kAllCategories);
  EXPECT_FALSE(parse_category_mask("bogus").has_value());
  EXPECT_FALSE(parse_category_mask("link,bogus").has_value());
}

TEST(TraceExport, IdenticalEventSequencesExportIdentically) {
  // The determinism contract at the exporter level: same events in, same
  // bytes out (full-simulation determinism is covered in integration_test).
  auto fill = [](Tracer& tracer) {
    tracer.record(0, Category::kProtocol, EventKind::kInstant, "probe.start", 7, 12.5);
    tracer.record(1'500, Category::kLink, EventKind::kCounter, "link.queued_bytes",
                  1, 42'000.0);
    tracer.record(2'000'999, Category::kScheduler, EventKind::kInstant,
                  "sched.fire", 3, 0.1);
  };
  Tracer a(16);
  Tracer b(16);
  fill(a);
  fill(b);
  std::ostringstream ja;
  std::ostringstream jb;
  write_chrome_trace(a, ja);
  write_chrome_trace(b, jb);
  EXPECT_EQ(ja.str(), jb.str());
  std::ostringstream la;
  std::ostringstream lb;
  write_trace_jsonl(a, la);
  write_trace_jsonl(b, lb);
  EXPECT_EQ(la.str(), lb.str());
}

TEST(TraceExport, ChromeTraceShape) {
  Tracer tracer(8);
  tracer.record(1'000, Category::kProtocol, EventKind::kInstant, "probe.start", 9, 3.0);
  tracer.record(2'500, Category::kTransport, EventKind::kCounter, "tcp.cwnd_bytes",
                2, 14'600.0);
  std::ostringstream out;
  write_chrome_trace(tracer, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"probe.start\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"protocol\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);   // instant marker
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);   // counter track
  // ts is microseconds with a nanosecond fraction: 1000 ns -> 1.000 us.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2.500"), std::string::npos);
}

TEST(TraceExport, JsonlOneLinePerEvent) {
  Tracer tracer(8);
  tracer.record(5, Category::kFleet, EventKind::kInstant, "fleet.test_start", 1, 2.0);
  tracer.record(6, Category::kFleet, EventKind::kCounter, "fleet.egress_util", 4, 37.5);
  std::ostringstream out;
  write_trace_jsonl(tracer, out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"name\":\"fleet.egress_util\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"fleet\""), std::string::npos);
}

TEST(Tracer, FullRingHandsItsEventsToTheOverflowHook) {
  Tracer tracer(4);
  std::vector<std::vector<std::uint64_t>> batches;
  tracer.set_overflow([&](std::span<TraceEvent> events) {
    batches.emplace_back();
    for (const TraceEvent& e : events) batches.back().push_back(e.id);
  });
  for (std::uint64_t i = 0; i < 10; ++i) {
    tracer.record(0, Category::kProtocol, EventKind::kInstant, "e", i, 0.0);
  }
  // Two full rings went out in record order; the ring starts over each time
  // instead of wrapping, so nothing is dropped.
  const std::vector<std::vector<std::uint64_t>> expected = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  EXPECT_EQ(batches, expected);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0].id, 8u);
}

}  // namespace
}  // namespace swiftest::obs
