// Rotating artifact spill (obs/spill.hpp) and the store-side rotation hooks:
// a full Tracer ring or SpanStore flushes whole segments through its spill
// sink instead of dropping, segments concatenate with the in-memory
// remainder into one complete stream, and merge_from carries spill counts so
// a sharded merge still accounts for every record.
#include "obs/spill.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/span/span.hpp"
#include "obs/trace.hpp"

namespace swiftest::obs {
namespace {

using span::kNoSpan;
using span::SpanId;
using span::SpanRecord;
using span::SpanStore;

TEST(TracerSpill, FullRingRotatesThroughSinkInsteadOfDropping) {
  Tracer tracer(4);
  std::vector<TraceEvent> spilled;
  tracer.set_spill([&](const TraceEvent* events, std::size_t count) {
    spilled.insert(spilled.end(), events, events + count);
  });

  for (int i = 0; i < 10; ++i) {
    tracer.record(i, Category::kFleet, EventKind::kInstant, "ev",
                  static_cast<std::uint64_t>(i), 0.0);
  }

  // 10 records into a 4-slot ring: two full flushes (8 events) spilled,
  // remainder retained, nothing dropped.
  EXPECT_EQ(tracer.spilled(), 8u);
  EXPECT_EQ(tracer.dropped(), 0u);
  ASSERT_EQ(tracer.size(), 2u);
  ASSERT_EQ(spilled.size(), 8u);

  // Spill order is oldest-first and seamless with the retained remainder:
  // ids 0..7 spilled, 8..9 retained.
  for (std::size_t i = 0; i < spilled.size(); ++i) {
    EXPECT_EQ(spilled[i].id, i);
  }
  const auto retained = tracer.events();
  EXPECT_EQ(retained[0].id, 8u);
  EXPECT_EQ(retained[1].id, 9u);
}

TEST(TracerSpill, MergeFromCarriesSpillCount) {
  Tracer src(4);
  src.set_spill([](const TraceEvent*, std::size_t) {});
  for (int i = 0; i < 6; ++i) {
    src.record(i, Category::kFleet, EventKind::kInstant, "ev", 0, 0.0);
  }
  ASSERT_EQ(src.spilled(), 4u);

  Tracer merged(8);
  merged.merge_from(src);
  EXPECT_EQ(merged.size(), src.size());
  EXPECT_EQ(merged.spilled(), 4u);
  EXPECT_EQ(merged.dropped(), 0u);
}

TEST(SpanSpill, ClosedPrefixRotatesAndKeepsGlobalIds) {
  SpanStore store(4);
  std::vector<SpanRecord> spilled;
  store.set_spill([&](const SpanRecord* spans, std::size_t count) {
    spilled.insert(spilled.end(), spans, spans + count);
  });

  // Three closed spans, then one open one fills the store.
  for (int i = 0; i < 3; ++i) {
    const SpanId id = store.begin(i, Category::kFleet, "closed");
    store.end(id, i + 1);
  }
  const SpanId open = store.begin(10, Category::kFleet, "open");
  ASSERT_EQ(store.size(), 4u);

  // The next begin rotates out the fully-closed prefix (ids 1..3) — never
  // the open span — and succeeds instead of refusing.
  const SpanId next = store.begin(20, Category::kFleet, "next");
  EXPECT_NE(next, kNoSpan);
  EXPECT_EQ(store.spilled(), 3u);
  EXPECT_EQ(store.dropped(), 0u);
  ASSERT_EQ(spilled.size(), 3u);
  EXPECT_EQ(spilled[0].id, 1u);
  EXPECT_EQ(spilled[2].id, 3u);

  // Spilled ids are gone from the store; live ids still resolve. Global id
  // assignment keeps counting across the rotation.
  store.end(open, 30);
  store.end(next, 30);
  ASSERT_EQ(store.spans().size(), 2u);
  EXPECT_EQ(store.spans()[0].id, 4u);
  EXPECT_EQ(store.spans()[1].id, 5u);
  EXPECT_TRUE(store.spans()[0].closed);

  // Ending an already-spilled id is a harmless no-op.
  store.end(1, 99);
  EXPECT_EQ(store.spilled(), 3u);
}

TEST(SpanSpill, AllOpenSpansCannotRotateSoBeginsDrop) {
  SpanStore store(2);
  store.set_spill([](const SpanRecord*, std::size_t) { FAIL() << "no closed prefix"; });
  const SpanId a = store.begin(0, Category::kFleet, "a");
  const SpanId b = store.begin(0, Category::kFleet, "b");
  ASSERT_NE(a, kNoSpan);
  ASSERT_NE(b, kNoSpan);
  EXPECT_EQ(store.begin(1, Category::kFleet, "c"), kNoSpan);
  EXPECT_EQ(store.dropped(), 1u);
  EXPECT_EQ(store.spilled(), 0u);
}

TEST(SpanSpill, MergeFromSpilledStoreCarriesCountsAndRemapsIds) {
  SpanStore src(4);
  src.set_spill([](const SpanRecord*, std::size_t) {});
  for (int i = 0; i < 3; ++i) {
    const SpanId id = src.begin(i, Category::kFleet, "early");
    src.end(id, i + 1);
  }
  // Root with a trace id survives in-store; a child under it too.
  const SpanId root = src.begin(10, Category::kFleet, "root", kNoSpan, 777);
  const SpanId child = src.begin(11, Category::kFleet, "child", root);
  src.end(child, 12);
  src.end(root, 13);
  ASSERT_EQ(src.spilled(), 3u);
  ASSERT_EQ(src.spans().size(), 2u);

  SpanStore dst(16);
  dst.merge_from(src);
  // Retained spans arrive with fresh contiguous ids; the parent link and
  // trace anchor follow the remap; the spill count carries over so the
  // merged artifact still accounts for the rotated-out records.
  ASSERT_EQ(dst.spans().size(), 2u);
  EXPECT_EQ(dst.spans()[0].id, 1u);
  EXPECT_EQ(dst.spans()[0].trace_id, 777u);
  EXPECT_EQ(dst.spans()[1].parent, dst.spans()[0].id);
  EXPECT_EQ(dst.anchor(777), dst.spans()[0].id);
  EXPECT_EQ(dst.spilled(), 3u);

  // A parent that was spilled at the source remaps to "no parent", not to a
  // dangling id: close the parent while its child stays open, so rotation
  // (which stops at the oldest open span) takes exactly the parent.
  SpanStore src2(4);
  src2.set_spill([](const SpanRecord*, std::size_t) {});
  const SpanId p = src2.begin(0, Category::kFleet, "parent");
  const SpanId c = src2.begin(1, Category::kFleet, "child", p);
  src2.end(p, 2);
  src2.begin(4, Category::kFleet, "x");
  src2.begin(5, Category::kFleet, "y");
  const SpanId z = src2.begin(6, Category::kFleet, "z");
  ASSERT_NE(z, kNoSpan);
  ASSERT_EQ(src2.spilled(), 1u);  // just p rotated out

  SpanStore dst2(16);
  dst2.merge_from(src2);
  ASSERT_EQ(dst2.spans().size(), 4u);
  EXPECT_EQ(dst2.spans()[0].name, std::string("child"));
  for (const SpanRecord& s : dst2.spans()) {
    EXPECT_EQ(s.parent, kNoSpan) << "spilled parents must remap to kNoSpan";
  }
  (void)c;
}

// ---------------------------------------------------------------------------
// SpillWriter: on-disk segments.

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(SpillWriter, WritesDeterministicallyNamedSegments) {
  const std::string dir = ::testing::TempDir();
  SpillWriter writer(dir, "trace_ut", 3);

  TraceEvent events[2];
  events[0] = {1000, Category::kFleet, EventKind::kInstant, "a", 1, 0.5};
  events[1] = {2000, Category::kFleet, EventKind::kCounter, "b", 2, 1.5};
  writer.write_trace_segment(events, 2);
  writer.write_trace_segment(events, 1);

  ASSERT_TRUE(writer.ok());
  ASSERT_EQ(writer.segments(), 2u);
  EXPECT_GT(writer.bytes_written(), 0u);
  // Names encode (stream, shard, rotation index) — never wall clock or tid.
  EXPECT_NE(writer.segment_paths()[0].find("trace_ut.shard0003.seg0000.jsonl"),
            std::string::npos);
  EXPECT_NE(writer.segment_paths()[1].find("trace_ut.shard0003.seg0001.jsonl"),
            std::string::npos);

  // Segment lines are exactly what the JSONL exporter would emit, so
  // segments ++ exported remainder is one seamless stream.
  std::string expected;
  append_trace_jsonl_line(expected, events[0]);
  append_trace_jsonl_line(expected, events[1]);
  EXPECT_EQ(read_file(writer.segment_paths()[0]), expected);
}

TEST(SpillWriter, SpanSegmentsHoldOneSpanPerLine) {
  const std::string dir = ::testing::TempDir();
  SpillWriter writer(dir, "spans_ut", 0);
  SpanRecord span;
  span.id = 41;
  span.trace_id = 9;
  span.name = "fleet.test";
  span.start = 100;
  span.end = 200;
  span.closed = true;
  writer.write_span_segment(&span, 1);
  ASSERT_TRUE(writer.ok());
  const std::string body = read_file(writer.segment_paths()[0]);
  EXPECT_NE(body.find("\"id\":41"), std::string::npos);
  EXPECT_NE(body.find("fleet.test"), std::string::npos);
  EXPECT_EQ(body.back(), '\n');
}

TEST(SpillWriter, ConcatPreservesSegmentOrder) {
  const std::string dir = ::testing::TempDir();
  SpillWriter writer(dir, "concat_ut", 1);
  TraceEvent event{500, Category::kFleet, EventKind::kInstant, "first", 7, 0.0};
  writer.write_trace_segment(&event, 1);
  event.name = "second";
  writer.write_trace_segment(&event, 1);
  ASSERT_EQ(writer.segments(), 2u);

  const std::string out = dir + "/concat_ut.spill.jsonl";
  std::string error;
  ASSERT_TRUE(concat_segments(writer.segment_paths(), out, &error)) << error;
  const std::string body = read_file(out);
  const auto first = body.find("first");
  const auto second = body.find("second");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST(SpillWriter, FailuresAreReportedNotThrown) {
  SpillWriter writer("/nonexistent_dir_for_spill_test", "t", 0);
  TraceEvent event{0, Category::kFleet, EventKind::kInstant, "x", 0, 0.0};
  writer.write_trace_segment(&event, 1);
  EXPECT_FALSE(writer.ok());

  std::string error;
  EXPECT_FALSE(concat_segments({"/nonexistent_dir_for_spill_test/nope.jsonl"},
                               ::testing::TempDir() + "/out.jsonl", &error));
  EXPECT_FALSE(error.empty());
}

TEST(TracerSpill, WriterRoundTripMatchesExporterStream) {
  // End to end: a tracer wired to a SpillWriter, overflowed, then exported —
  // concatenated segments plus the exported remainder reproduce the full
  // record stream in order.
  const std::string dir = ::testing::TempDir();
  Tracer tracer(4);
  SpillWriter writer(dir, "rt_ut", 0);
  tracer.set_spill([&](const TraceEvent* events, std::size_t count) {
    writer.write_trace_segment(events, count);
  });
  std::string full;
  for (int i = 0; i < 11; ++i) {
    TraceEvent event{i * 100, Category::kFleet, EventKind::kInstant, "rt",
                     static_cast<std::uint64_t>(i), 0.25 * i};
    tracer.record(event.ts, event.category, event.kind, event.name, event.id,
                  event.value);
    append_trace_jsonl_line(full, event);
  }
  const std::string spill_path = dir + "/rt_ut.spill.jsonl";
  ASSERT_TRUE(concat_segments(writer.segment_paths(), spill_path, nullptr));
  std::ostringstream remainder;
  write_trace_jsonl(tracer, remainder);
  EXPECT_EQ(read_file(spill_path) + remainder.str(), full);
}

TEST(SpillWriter, RenumberRenamesWrittenSegmentsAndLaterOnes) {
  // A writer whose shard index is only known after it ran: segments already
  // written move to the new name, later ones are born under it.
  const std::string dir = ::testing::TempDir();
  SpillWriter writer(dir, "renum_ut", 9999);
  TraceEvent events[1];
  events[0] = {1000, Category::kFleet, EventKind::kInstant, "a", 1, 0.5};
  writer.write_trace_segment(events, 1);
  const std::string old_path = writer.segment_paths()[0];
  const std::string body = read_file(old_path);

  writer.renumber(12);
  writer.write_trace_segment(events, 1);
  ASSERT_TRUE(writer.ok());
  ASSERT_EQ(writer.segments(), 2u);
  EXPECT_NE(writer.segment_paths()[0].find("renum_ut.shard0012.seg0000.jsonl"),
            std::string::npos);
  EXPECT_NE(writer.segment_paths()[1].find("renum_ut.shard0012.seg0001.jsonl"),
            std::string::npos);
  EXPECT_EQ(read_file(writer.segment_paths()[0]), body);
  EXPECT_FALSE(std::ifstream(old_path).good());
}

}  // namespace
}  // namespace swiftest::obs
