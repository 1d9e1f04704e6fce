// The canonical trace stream (deploy/trace_stream.hpp): what a fleet chunk
// hands it at commit comes out once, in canonical order, as soon as it is
// final, with spans numbered 1..n as they leave.
#include "deploy/trace_stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace swiftest::deploy {
namespace {

using obs::Category;
using obs::span::kNoSpan;
using obs::span::SpanId;

void record(obs::Tracer& tracer, core::SimTime ts, const char* name,
            std::uint64_t id = 0) {
  tracer.record(ts, Category::kProtocol, obs::EventKind::kInstant, name, id, 0.0);
}

std::vector<core::SimTime> stamps(const std::vector<obs::TraceEvent>& events) {
  std::vector<core::SimTime> out;
  for (const obs::TraceEvent& e : events) out.push_back(e.ts);
  return out;
}

TEST(CanonicalStream, EmitsFinalEventsInCanonicalOrderAndHoldsTheTail) {
  obs::Hub target;
  CanonicalStream stream(target);
  // Two tests' runs, each ascending in ts, as a chunk ring holds them.
  obs::Tracer chunk;
  record(chunk, 10, "b");
  record(chunk, 10, "a");
  record(chunk, 40, "c");
  record(chunk, 5, "d");
  record(chunk, 30, "e");
  ChunkRecords records;
  stream.commit_events(chunk, records, 30);
  // Only what starts before the bound is final: same ts orders by name.
  std::vector<std::string> names;
  for (const obs::TraceEvent& e : target.tracer.events()) names.emplace_back(e.name);
  EXPECT_EQ(names, (std::vector<std::string>{"d", "a", "b"}));

  obs::Tracer next;
  record(next, 30, "f");
  stream.add({35, Category::kFleet, obs::EventKind::kCounter, "g", 0, 1.0});
  stream.commit_events(next, records, 35);
  stream.finish();
  EXPECT_EQ(stamps(target.tracer.events()),
            (std::vector<core::SimTime>{5, 10, 10, 30, 30, 35, 40}));
  const std::vector<obs::TraceEvent> events = target.tracer.events();
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                               return canonical_less(a, b);
                             }));
}

TEST(CanonicalStream, SinkedChunkRingWritesSortedRunsAndDropsNothing) {
  obs::Hub target;
  std::vector<obs::TraceEvent> emitted;
  target.event_sink = [&](const obs::TraceEvent& e) { emitted.push_back(e); };
  CanonicalStream stream(target);
  obs::Hub chunk(4);
  ChunkRecords records(0);
  records.arm(chunk, target);
  // Three tests of four events each overflow a four-event ring twice.
  for (const core::SimTime start : {0, 3, 7}) {
    for (core::SimTime t = 0; t < 4; ++t) record(chunk.tracer, start + t, "e");
  }
  EXPECT_EQ(chunk.tracer.dropped(), 0u);
  stream.commit_events(chunk.tracer, records, 7);
  EXPECT_EQ(stamps(emitted), (std::vector<core::SimTime>{0, 1, 2, 3, 3, 4, 5, 6}));
  stream.finish();
  EXPECT_EQ(emitted.size(), 12u);
  EXPECT_TRUE(std::is_sorted(emitted.begin(), emitted.end(),
                             [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                               return canonical_less(a, b);
                             }));
  EXPECT_EQ(target.tracer.size() + target.tracer.dropped(), 0u);
}

TEST(CanonicalStream, SpansTakeIdsInEmissionOrderAndParentsResolveAcrossFlushes) {
  obs::Hub target;
  CanonicalStream stream(target);
  // One test: a root, a child that starts with it and sorts before it (its
  // name does), and a child that only becomes final at the second flush.
  obs::span::SpanStore store;
  const SpanId root = store.begin(100, Category::kFleet, "z.root", kNoSpan, 7);
  const SpanId first = store.begin(100, Category::kProtocol, "a.first", root);
  const SpanId late = store.begin(200, Category::kProtocol, "b.late", root);
  store.end(first, 150);
  store.end(late, 250);
  store.end(root, 300);
  ChunkRecords records(3);
  records.take_spans(store);
  EXPECT_EQ(store.size(), 0u);
  stream.commit_spans(records, 150);
  ASSERT_EQ(target.spans.size(), 2u);
  stream.finish();

  const std::vector<obs::span::SpanRecord>& spans = target.spans.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "a.first");
  EXPECT_STREQ(spans[1].name, "z.root");
  EXPECT_STREQ(spans[2].name, "b.late");
  for (std::size_t i = 0; i < spans.size(); ++i) EXPECT_EQ(spans[i].id, i + 1);
  // The child emitted before its parent, and the one emitted a flush later,
  // both point at the root's id.
  EXPECT_EQ(spans[0].parent, 2u);
  EXPECT_EQ(spans[1].parent, kNoSpan);
  EXPECT_EQ(spans[2].parent, 2u);
  EXPECT_EQ(spans[1].trace_id, 7u);
}

TEST(CanonicalStream, BankedSpanRunsKeepBeginOrderAndCounts) {
  obs::Hub target;
  std::vector<obs::span::SpanRecord> emitted;
  target.span_sink = [&](const obs::span::SpanRecord& r) { emitted.push_back(r); };
  CanonicalStream stream(target);
  obs::Hub chunk(16, 2);
  ChunkRecords records(0);
  records.arm(chunk, target);
  // Six identical-content spans through a two-span store, taken after each
  // test of two: every take fills the buffer and writes a run. A third
  // begin in one test is refused and counted.
  for (std::uint64_t i = 0; i < 6; ++i) {
    const SpanId id = chunk.spans.begin(0, Category::kFleet, "s", kNoSpan);
    chunk.spans.attr_u64(id, "i", i);
    chunk.spans.end(id, 1);
    if (i % 2 == 1) records.take_spans(chunk.spans);
  }
  chunk.spans.begin(0, Category::kFleet, "a");
  chunk.spans.begin(0, Category::kFleet, "b");
  EXPECT_EQ(chunk.spans.begin(0, Category::kFleet, "refused"), kNoSpan);
  records.take_spans(chunk.spans);
  stream.commit_spans(records, 1);
  stream.finish();
  ASSERT_EQ(emitted.size(), 8u);
  for (std::size_t i = 0; i < emitted.size(); ++i) EXPECT_EQ(emitted[i].id, i + 1);
  // The two open spans sort first at start 0 ("a" < "b" < "s"); the six
  // closed ones keep their begin order.
  EXPECT_STREQ(emitted[0].name, "a");
  EXPECT_STREQ(emitted[1].name, "b");
  for (std::size_t i = 2; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i].attrs[0].u64, i - 2) << "full content ties keep begin order";
  }
  EXPECT_EQ(target.spans.dropped(), 1u);
  EXPECT_EQ(target.spans.size(), 0u);
}

}  // namespace
}  // namespace swiftest::deploy
