// Span model semantics (store, context, scope) plus the end-to-end
// acceptance check: a full Swiftest wire test decomposes into named stages
// whose critical-path segments sum to the measured test duration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "netsim/scenario.hpp"
#include "obs/hub.hpp"
#include "obs/span/critical_path.hpp"
#include "obs/span/json.hpp"
#include "obs/span/span.hpp"
#include "swiftest/wire_client.hpp"

namespace swiftest::obs::span {
namespace {

TEST(SpanStore, AssignsSequentialIdsAndTracksOpenCount) {
  SpanStore store;
  const SpanId a = store.begin(0, Category::kProtocol, "a");
  const SpanId b = store.begin(10, Category::kProtocol, "b", a);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(store.open_count(), 2u);
  store.end(b, 20);
  EXPECT_EQ(store.open_count(), 1u);
  store.end(a, 30);
  EXPECT_EQ(store.open_count(), 0u);
  EXPECT_EQ(store.spans()[1].parent, a);
  EXPECT_EQ(store.spans()[0].duration(), 30);
}

TEST(SpanStore, OperationsOnNoSpanAreNoOps) {
  SpanStore store;
  store.end(kNoSpan, 100);
  store.attr_f64(kNoSpan, "x", 1.0);
  store.attr_u64(kNoSpan, "y", 2);
  store.set_trace_id(kNoSpan, 99);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.open_count(), 0u);
  EXPECT_EQ(store.anchor(99), kNoSpan);
}

TEST(SpanStore, FullStoreDegradesGracefully) {
  SpanStore store(2);
  const SpanId a = store.begin(0, Category::kProtocol, "a");
  const SpanId b = store.begin(1, Category::kProtocol, "b", a);
  const SpanId c = store.begin(2, Category::kProtocol, "c", b);
  EXPECT_NE(a, kNoSpan);
  EXPECT_NE(b, kNoSpan);
  EXPECT_EQ(c, kNoSpan);
  EXPECT_EQ(store.dropped(), 1u);
  // The refused id stays inert: no attr, no end, no corruption.
  store.attr_f64(c, "rate_mbps", 50.0);
  store.end(c, 5);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.open_count(), 2u);
}

TEST(SpanStore, DoubleEndIsIdempotent) {
  SpanStore store;
  const SpanId a = store.begin(0, Category::kProtocol, "a");
  store.end(a, 100);
  store.end(a, 999);  // must not move the end timestamp
  EXPECT_EQ(store.spans()[0].end, 100);
  EXPECT_EQ(store.open_count(), 0u);
}

TEST(SpanStore, EndBeforeStartClampsToZeroDuration) {
  SpanStore store;
  const SpanId a = store.begin(100, Category::kProtocol, "a");
  store.end(a, 50);
  EXPECT_EQ(store.spans()[0].end, 100);
  EXPECT_TRUE(store.spans()[0].closed);
}

TEST(SpanStore, TraceIdInheritsFromParentAndAnchorsFirstWins) {
  SpanStore store;
  const SpanId root = store.begin(0, Category::kProtocol, "root");
  store.set_trace_id(root, 42);
  const SpanId child = store.begin(5, Category::kProtocol, "child", root);
  EXPECT_EQ(store.spans()[child - 1].trace_id, 42u);
  EXPECT_EQ(store.anchor(42), root);

  // A later registration under the same trace id does not steal the anchor.
  const SpanId other = store.begin(7, Category::kProtocol, "other", kNoSpan, 42);
  EXPECT_NE(other, kNoSpan);
  EXPECT_EQ(store.anchor(42), root);
  EXPECT_EQ(store.anchor(777), kNoSpan);
}

TEST(SpanStore, AttrsCapAtMaxWithoutCorruption) {
  SpanStore store;
  const SpanId a = store.begin(0, Category::kProtocol, "a");
  for (int i = 0; i < 8; ++i) store.attr_f64(a, "k", static_cast<double>(i));
  EXPECT_EQ(store.spans()[0].attr_count, SpanRecord::kMaxAttrs);
}

TEST(SpanStore, ClosedSpansFeedStageHistograms) {
  Hub hub;
  const SpanId a = hub.spans.begin(0, Category::kProtocol, "stage.x");
  hub.spans.end(a, core::seconds(1));
  const auto snap = hub.metrics.snapshot();
  const auto it = snap.histograms.find("span.stage_seconds/stage.x");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 1u);
}

core::SimTime fixed_clock(void* arg) { return *static_cast<core::SimTime*>(arg); }

TEST(SpanContext, UnboundContextIsANoOp) {
  SpanContext ctx;
  EXPECT_FALSE(ctx.enabled());
  EXPECT_EQ(ctx.begin(Category::kProtocol, "x"), kNoSpan);
  ctx.push(kNoSpan);
  EXPECT_EQ(ctx.current(), kNoSpan);
  SpanScope scope(ctx, Category::kProtocol, "y");
  EXPECT_EQ(scope.id(), kNoSpan);
}

TEST(SpanContext, PushPopUnwindsPastAbandonedSpans) {
  SpanStore store;
  core::SimTime now = 0;
  SpanContext ctx;
  ctx.bind(&store, &fixed_clock, &now);

  const SpanId a = ctx.begin(Category::kProtocol, "a");
  ctx.push(a);
  const SpanId b = ctx.begin(Category::kProtocol, "b");
  ctx.push(b);
  EXPECT_EQ(ctx.current(), b);
  EXPECT_EQ(store.spans()[b - 1].parent, a);

  // Popping the outer id unwinds through the abandoned inner one.
  ctx.pop(a);
  EXPECT_EQ(ctx.current(), kNoSpan);
}

TEST(SpanContext, ScopeNestsUnderAmbientParent) {
  SpanStore store;
  core::SimTime now = core::seconds(1);
  SpanContext ctx;
  ctx.bind(&store, &fixed_clock, &now);
  {
    SpanScope outer(ctx, Category::kProtocol, "outer");
    now = core::seconds(2);
    {
      SpanScope inner(ctx, Category::kProtocol, "inner");
      now = core::seconds(3);
      EXPECT_EQ(store.spans()[inner.id() - 1].parent, outer.id());
    }
    EXPECT_EQ(ctx.current(), outer.id());
  }
  EXPECT_EQ(ctx.current(), kNoSpan);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.spans()[0].closed);
  EXPECT_TRUE(store.spans()[1].closed);
  EXPECT_EQ(store.spans()[1].start, core::seconds(2));
  EXPECT_EQ(store.spans()[1].end, core::seconds(3));
}

bts::BtsResult run_traced(Hub& hub, std::uint64_t seed) {
  netsim::ScenarioConfig net;
  net.access_rate = core::Bandwidth::mbps(50);
  netsim::Scenario scenario(net, seed);
  scenario.scheduler().set_obs(&hub);
  swift::SwiftestConfig cfg;
  // The 4G model's probing modes start below 50 Mbps, so the client has to
  // escalate through several rounds before it converges — the decomposition
  // the attribution tests want to see.
  cfg.tech = dataset::AccessTech::k4G;
  swift::ModelRegistry registry;
  swift::WireClient client(cfg, registry);
  return client.run(scenario);
}

// The acceptance criterion for the span layer: one wire test decomposes
// into at least five named stages, and the critical-path segments of its
// span tree sum to the measured test duration within 1%.
TEST(SpanIntegration, WireTestDecomposesIntoStagesWithExactAttribution) {
  Hub hub;
  // Seed chosen so the test needs more than one escalation round: the round
  // stage then carries nonzero critical time (a single-round run folds the
  // whole round into the convergence window).
  const bts::BtsResult result = run_traced(hub, 7);
  EXPECT_GT(result.bandwidth_mbps, 0.0);
  EXPECT_EQ(hub.spans.dropped(), 0u);
  EXPECT_EQ(hub.spans.open_count(), 0u);

  std::set<std::string> names;
  for (const auto& record : hub.spans.spans()) names.insert(record.name);
  const char* stages[] = {"swiftest.test",  "swiftest.select_server",
                          "swiftest.handshake", "swiftest.round",
                          "swiftest.convergence", "swiftest.finalize",
                          "server.session"};
  for (const char* stage : stages) {
    EXPECT_TRUE(names.count(stage)) << "missing stage span: " << stage;
  }

  const AttributionReport report = analyze_spans(to_span_data(hub.spans));
  EXPECT_EQ(report.orphan_spans, 0u);
  EXPECT_EQ(report.open_spans, 0u);
  ASSERT_EQ(report.traces.size(), 1u);
  const TraceAttribution& trace = report.traces.front();
  EXPECT_EQ(trace.root_name, "swiftest.test");
  EXPECT_NE(trace.trace_id, 0u);
  EXPECT_GT(trace.duration_s, 0.0);
  EXPECT_LE(std::abs(trace.critical_sum_s - trace.duration_s),
            0.01 * trace.duration_s);

  // The critical path visits the sequential client stages — at least five
  // distinct names, never the concurrent (aux) server session.
  std::set<std::string> on_path;
  for (const auto& segment : trace.critical_path) on_path.insert(segment.name);
  EXPECT_GE(on_path.size(), 5u);
  EXPECT_EQ(on_path.count("server.session"), 0u);
  EXPECT_TRUE(on_path.count("swiftest.round"));
  EXPECT_TRUE(on_path.count("swiftest.convergence"));
  EXPECT_TRUE(on_path.count("swiftest.finalize"));

  // Segments are contiguous in time and partition the root interval.
  ASSERT_FALSE(trace.critical_path.empty());
  for (std::size_t i = 1; i < trace.critical_path.size(); ++i) {
    EXPECT_EQ(trace.critical_path[i - 1].end, trace.critical_path[i].start);
  }

  // The server session is still attributed (stage totals), just off-path.
  const auto stage_named = [&](const char* name) {
    return std::find_if(trace.stages.begin(), trace.stages.end(),
                        [&](const StageStat& s) { return s.name == name; });
  };
  ASSERT_NE(stage_named("server.session"), trace.stages.end());
  EXPECT_GT(stage_named("server.session")->total_s, 0.0);
  EXPECT_DOUBLE_EQ(stage_named("server.session")->critical_s, 0.0);
}

TEST(SpanIntegration, SameSeedRunsProduceByteIdenticalSpanJson) {
  Hub first;
  Hub second;
  run_traced(first, 1234);
  run_traced(second, 1234);

  std::ostringstream a;
  std::ostringstream b;
  write_spans_json(first.spans, a);
  write_spans_json(second.spans, b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_GT(a.str().size(), 100u);

  // And the attribution derived from them is byte-identical too.
  std::ostringstream ra;
  std::ostringstream rb;
  write_attribution_json(analyze_spans(to_span_data(first.spans)), ra);
  write_attribution_json(analyze_spans(to_span_data(second.spans)), rb);
  EXPECT_EQ(ra.str(), rb.str());
}

TEST(SpanIntegration, SpanJsonRoundTripsThroughParser) {
  Hub hub;
  run_traced(hub, 7);
  std::ostringstream out;
  write_spans_json(hub.spans, out);

  std::string error;
  const auto parsed = parse_spans_json(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), hub.spans.size());

  const AttributionReport from_live = analyze_spans(to_span_data(hub.spans));
  const AttributionReport from_file = analyze_spans(*parsed);
  std::ostringstream live_json;
  std::ostringstream file_json;
  write_attribution_json(from_live, live_json);
  write_attribution_json(from_file, file_json);
  EXPECT_EQ(live_json.str(), file_json.str());
}

// Graceful degradation of the tracer ring while spans are open: overflow
// must never damage the span tree.
TEST(TracerOverflow, OpenSpansSurviveRingWrap) {
  // A tiny ring that is guaranteed to wrap while spans are still open: the
  // span store (which mirrors begin/end into the tracer) must stay intact.
  Hub hub(/*trace_capacity=*/4);
  auto& spans = hub.spans;
  const auto root = spans.begin(0, Category::kProtocol, "test");
  const auto child = spans.begin(10, Category::kProtocol, "round", root);

  for (int i = 0; i < 100; ++i) {
    hub.tracer.record(core::SimTime(i), Category::kProtocol, EventKind::kInstant,
                      "noise", 0, 0.0);
  }
  EXPECT_GT(hub.tracer.dropped(), 0u);
  EXPECT_EQ(hub.tracer.size(), hub.tracer.capacity());

  // The span layer is unaffected by the ring wrapping...
  EXPECT_EQ(spans.open_count(), 2u);
  EXPECT_EQ(spans.dropped(), 0u);
  spans.attr_f64(child, "rate_mbps", 25.0);
  spans.end(child, 500);
  spans.end(root, 1000);
  EXPECT_EQ(spans.open_count(), 0u);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_TRUE(spans.spans()[0].closed);
  EXPECT_TRUE(spans.spans()[1].closed);
  EXPECT_EQ(spans.spans()[1].parent, root);
  EXPECT_EQ(spans.spans()[0].duration(), 1000);

  // ...and closing spans after the wrap still feeds the stage histograms.
  const auto snap = hub.metrics.snapshot();
  EXPECT_EQ(snap.histograms.at("span.stage_seconds/test").count, 1u);
  EXPECT_EQ(snap.histograms.at("span.stage_seconds/round").count, 1u);
}

TEST(TracerOverflow, FullSpanStoreStillMirrorsNothingButStaysConsistent) {
  // Both bounded structures at their limits at once: ring wrapped, span
  // store full. Everything degrades to counters, nothing corrupts.
  Hub hub(/*trace_capacity=*/4, /*span_capacity=*/2);
  const auto a = hub.spans.begin(0, Category::kProtocol, "a");
  const auto b = hub.spans.begin(1, Category::kProtocol, "b", a);
  const auto c = hub.spans.begin(2, Category::kProtocol, "c", b);
  EXPECT_EQ(c, span::kNoSpan);
  for (int i = 0; i < 50; ++i) {
    hub.tracer.record(core::SimTime(i), Category::kProtocol, EventKind::kInstant,
                      "noise", 0, 0.0);
  }
  hub.spans.end(b, 10);
  hub.spans.end(a, 20);
  EXPECT_EQ(hub.spans.dropped(), 1u);
  EXPECT_GT(hub.tracer.dropped(), 0u);
  EXPECT_EQ(hub.spans.open_count(), 0u);
  EXPECT_EQ(hub.spans.size(), 2u);
}

}  // namespace
}  // namespace swiftest::obs::span
