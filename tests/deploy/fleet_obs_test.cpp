// Bounded observability at fleet scale (DESIGN.md §12): deterministic
// whole-test sampling keyed on the global workload draw index makes the
// sampled trace/span/metrics artifacts a pure function of (seed, workload) —
// byte-identical across chunk sizes and job counts for both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/generator.hpp"
#include "deploy/fleet_sim.hpp"
#include "deploy/trace_stream.hpp"
#include "obs/export.hpp"
#include "obs/health/report.hpp"
#include "obs/hub.hpp"
#include "obs/span/json.hpp"
#include "swiftest/model_registry.hpp"

namespace swiftest::deploy {
namespace {

const std::vector<dataset::TestRecord>& population() {
  static const auto records = dataset::generate_campaign(8'000, 2021, 5);
  return records;
}

struct ObsArtifacts {
  std::string trace;
  std::string spans;
  std::string metrics;
  std::string health;
  std::uint64_t tests = 0;
  std::uint64_t sampled = 0;
  std::uint64_t span_suppressed = 0;
  std::uint64_t trace_recorded = 0;  // retained + dropped events
  std::uint64_t span_count = 0;
};

ObsArtifacts run_fleet(FleetBackend backend, std::size_t chunk, std::size_t jobs,
                       std::uint64_t sample_denominator) {
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = backend == FleetBackend::kPacket ? 150.0 : 400.0;
  cfg.seed = 11;
  cfg.backend = backend;
  cfg.chunk = chunk;
  cfg.jobs = jobs;
  cfg.sample.set_denominator(sample_denominator);

  obs::Hub hub;
  obs::health::HealthMonitor health;
  cfg.obs = &hub;
  cfg.health = &health;

  const FleetSimResult result = simulate_fleet(population(), registry, cfg);

  ObsArtifacts out;
  std::ostringstream trace_out;
  obs::write_trace_jsonl(hub.tracer, trace_out);
  out.trace = trace_out.str();
  std::ostringstream spans_out;
  obs::span::write_spans_json(hub.spans, spans_out);
  out.spans = spans_out.str();
  std::ostringstream metrics_out;
  obs::write_metrics_json(hub.metrics.snapshot(), metrics_out);
  out.metrics = metrics_out.str();
  std::ostringstream health_out;
  obs::health::write_health_json(health.snapshot(), {}, nullptr, health_out);
  out.health = health_out.str();
  out.tests = result.tests_simulated;
  const auto& counters = hub.metrics.snapshot().counters;
  if (const auto it = counters.find("fleet.tests_sampled"); it != counters.end()) {
    out.sampled = it->second;
  }
  out.span_suppressed = hub.spans.suppressed();
  out.trace_recorded = hub.tracer.size() + hub.tracer.dropped();
  out.span_count = hub.spans.size();
  return out;
}

std::size_t count_lines(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(FleetSampling, AnalyticSampledArtifactsByteIdenticalAcrossChunksAndJobs) {
  const ObsArtifacts reference = run_fleet(FleetBackend::kAnalytic, 0, 1, 8);
  ASSERT_GT(reference.tests, 100u);
  // 1/8 sampling keeps a proper, non-empty subset.
  EXPECT_GT(reference.sampled, 0u);
  EXPECT_LT(reference.sampled, reference.tests);
  // Each sampled test contributes exactly fleet.test_start + fleet.test_done.
  EXPECT_EQ(count_lines(reference.trace), 2 * reference.sampled);

  // Chunk 1, an odd chunk, and (4096) one chunk on more workers than
  // chunks.
  for (const std::size_t chunk : {1u, 32u, 37u, 64u, 4096u}) {
    const ObsArtifacts j1 = run_fleet(FleetBackend::kAnalytic, chunk, 1, 8);
    const ObsArtifacts j4 = run_fleet(FleetBackend::kAnalytic, chunk, 4, 8);
    const ObsArtifacts j8 = run_fleet(FleetBackend::kAnalytic, chunk, 8, 8);
    for (const ObsArtifacts* run : {&j1, &j4, &j8}) {
      EXPECT_EQ(run->tests, reference.tests);
      EXPECT_EQ(run->sampled, reference.sampled);
      // The whole point: every artifact is a pure function of (config,
      // seed) — the canonical merge erases the partition entirely. That now
      // includes health: chunks hold consecutive draws, so chunk-order
      // replay IS the global draw order and the P² quantile cells see the
      // exact same sample sequence at any chunk size.
      EXPECT_EQ(run->trace, reference.trace) << "chunk=" << chunk;
      EXPECT_EQ(run->spans, reference.spans) << "chunk=" << chunk;
      EXPECT_EQ(run->metrics, reference.metrics) << "chunk=" << chunk;
      EXPECT_EQ(run->health, reference.health) << "chunk=" << chunk;
    }
  }
}

TEST(FleetSampling, AnalyticSampledSubsetChangesWithSeedNotPartition) {
  // Same workload, different seed: the salt selects a different subset
  // (almost surely, at these sizes), so sampling is seed-keyed, not
  // position-keyed.
  const ObsArtifacts a = run_fleet(FleetBackend::kAnalytic, 64, 2, 8);
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 400.0;
  cfg.seed = 12;
  cfg.chunk = 64;
  cfg.jobs = 2;
  cfg.sample.set_denominator(8);
  obs::Hub hub;
  cfg.obs = &hub;
  (void)simulate_fleet(population(), registry, cfg);
  std::ostringstream trace_out;
  obs::write_trace_jsonl(hub.tracer, trace_out);
  EXPECT_NE(trace_out.str(), a.trace);
}

TEST(FleetSampling, DisabledSamplingLeavesAnalyticRunUninstrumented) {
  // Keep-everything (1/1) preserves the legacy contract: the
  // analytic backend emits no per-test traces or spans at all, so existing
  // artifacts cannot shift.
  const ObsArtifacts run = run_fleet(FleetBackend::kAnalytic, 64, 2, 1);
  EXPECT_EQ(run.sampled, 0u);
  EXPECT_TRUE(run.trace.empty());
}

TEST(FleetSampling, PacketSampledArtifactsIndependentOfJobsAndSuppressOrphans) {
  const ObsArtifacts serial = run_fleet(FleetBackend::kPacket, 32, 1, 4);
  const ObsArtifacts threaded = run_fleet(FleetBackend::kPacket, 32, 4, 4);
  ASSERT_GT(serial.tests, 50u);
  EXPECT_GT(serial.sampled, 0u);
  EXPECT_LT(serial.sampled, serial.tests);
  // Unsampled tests' server sessions are refused (suppressed, not dropped):
  // no orphan roots from participants whose client never registered an
  // anchor.
  EXPECT_GT(serial.span_suppressed, 0u);
  EXPECT_NE(serial.spans.find("swiftest.test"), std::string::npos);

  // Threads, chunk 1, an odd chunk, and one chunk on more workers than
  // chunks.
  for (const auto& [chunk, jobs] : {std::pair<std::size_t, std::size_t>{1, 2},
                                   {37, 4}, {4096, 8}}) {
    const ObsArtifacts run = run_fleet(FleetBackend::kPacket, chunk, jobs, 4);
    EXPECT_EQ(run.trace, threaded.trace) << "chunk=" << chunk << " jobs=" << jobs;
    EXPECT_EQ(run.spans, threaded.spans) << "chunk=" << chunk << " jobs=" << jobs;
    EXPECT_EQ(run.metrics, threaded.metrics) << "chunk=" << chunk << " jobs=" << jobs;
    EXPECT_EQ(run.health, threaded.health) << "chunk=" << chunk << " jobs=" << jobs;
  }
  EXPECT_EQ(serial.tests, threaded.tests);
  EXPECT_EQ(serial.sampled, threaded.sampled);
  EXPECT_EQ(serial.trace, threaded.trace);
  EXPECT_EQ(serial.spans, threaded.spans);
  EXPECT_EQ(serial.metrics, threaded.metrics);
  EXPECT_EQ(serial.health, threaded.health);
}

TEST(FleetSampling, PacketOneInEightSampledRunRecordsAtMostAQuarterOfTheTrace) {
  // Sampling must cut what is recorded, not only what is retained: at 1/8
  // the run records (retains + drops) at most a quarter of the trace events
  // the keep-everything run does.
  const ObsArtifacts full = run_fleet(FleetBackend::kPacket, 32, 1, 1);
  const ObsArtifacts sampled = run_fleet(FleetBackend::kPacket, 32, 1, 8);
  ASSERT_GT(sampled.trace_recorded, 0u);
  EXPECT_LE(4 * sampled.trace_recorded, full.trace_recorded);

  // The volumes themselves are a pure function of (config, seed), so they
  // are pinned exactly: a change to what instrumentation emits or what
  // sampling suppresses shows up here.
  EXPECT_EQ(full.tests, 164u);
  EXPECT_EQ(sampled.tests, full.tests);
  EXPECT_EQ(sampled.sampled, 17u);
  EXPECT_EQ(full.span_count, 1627u);
  EXPECT_EQ(sampled.span_count, 158u);
  EXPECT_EQ(full.span_suppressed, 0u);
  EXPECT_EQ(sampled.span_suppressed, 288u);
  EXPECT_EQ(full.trace_recorded, 14'122'759u);
  EXPECT_EQ(sampled.trace_recorded, 1'091'413u);
}

TEST(FleetSampling, PacketTraceHoldsOnlySampledTests) {
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 150.0;
  cfg.seed = 11;
  cfg.backend = FleetBackend::kPacket;
  cfg.chunk = 32;
  cfg.sample.set_denominator(4);
  obs::Hub hub;
  hub.tracer.set_category_mask(static_cast<std::uint32_t>(obs::Category::kFleet) |
                               static_cast<std::uint32_t>(obs::Category::kProtocol));
  cfg.obs = &hub;

  (void)simulate_fleet(population(), registry, cfg);
  ASSERT_EQ(hub.tracer.dropped(), 0u);

  // Every sampled test leaves exactly one fleet.test_start: its interval.
  const std::vector<obs::TraceEvent> events = hub.tracer.events();
  std::vector<core::SimTime> starts;
  for (const obs::TraceEvent& e : events) {
    if (std::string_view(e.name) == "fleet.test_start") starts.push_back(e.ts);
  }
  const auto& counters = hub.metrics.snapshot().counters;
  const auto sampled = counters.find("fleet.tests_sampled");
  ASSERT_NE(sampled, counters.end());
  ASSERT_GT(sampled->second, 0u);
  EXPECT_EQ(starts.size(), sampled->second);

  // An unsampled test traces nothing: every protocol event falls inside some
  // sampled test's [start, start + hard stop + one window] run bound.
  const core::SimDuration bound =
      core::seconds(30) + deploy::kUtilizationWindowSeconds * core::seconds(1);
  std::size_t protocol_events = 0;
  std::size_t outside = 0;
  std::string first_outside;
  for (const obs::TraceEvent& e : events) {
    if (e.category == obs::Category::kFleet) continue;
    ++protocol_events;
    const bool inside = std::any_of(starts.begin(), starts.end(), [&](core::SimTime s) {
      return e.ts >= s && e.ts <= s + bound;
    });
    if (!inside && outside++ == 0) {
      first_outside = std::string(e.name) + " at ts " + std::to_string(e.ts);
    }
  }
  EXPECT_GT(protocol_events, 0u);
  EXPECT_EQ(outside, 0u) << "first: " << first_outside;
}

// The canonical trace stream with sinks attached: every recorded event and
// span reaches the sinks once, in canonical order, whatever the partition —
// chunk rings and span stores that fill write sorted runs instead of
// dropping.
struct Streamed {
  std::string trace;  // the events as trace.jsonl renders them
  std::string spans;  // the span document
  std::vector<obs::span::SpanRecord> records;
  std::uint64_t events = 0;
  std::uint64_t trace_dropped = 0;
  bool ordered = true;
};

FleetSimConfig small_day(FleetBackend backend) {
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = backend == FleetBackend::kPacket ? 20.0 : 400.0;
  cfg.seed = 11;
  cfg.backend = backend;
  return cfg;
}

/// Runs `cfg` into `hub`, streamed through its sinks when `sinks` is set.
Streamed run_streamed(FleetSimConfig cfg, obs::Hub& hub, bool sinks) {
  const swift::ModelRegistry registry;
  std::ostringstream trace;
  std::optional<obs::TraceWriter> writer;
  Streamed out;
  obs::TraceEvent last;
  if (sinks) {
    writer.emplace(&trace, nullptr);
    hub.event_sink = [&](const obs::TraceEvent& e) {
      if (out.events++ > 0 && canonical_less(e, last)) out.ordered = false;
      last = e;
      writer->write(e);
    };
    hub.span_sink = [&](const obs::span::SpanRecord& r) { out.records.push_back(r); };
  }
  cfg.obs = &hub;
  (void)simulate_fleet(population(), registry, cfg);
  if (sinks) {
    writer->finish();
    out.trace = trace.str();
  } else {
    obs::write_trace_jsonl(hub.tracer, trace);
    out.trace = trace.str();
    out.records = hub.spans.spans();
  }
  hub.event_sink = nullptr;
  hub.span_sink = nullptr;
  std::ostringstream spans;
  obs::span::SpanWriter doc(&spans);
  for (const obs::span::SpanRecord& r : out.records) doc.write(r);
  doc.finish(hub.spans.dropped());
  out.spans = spans.str();
  out.trace_dropped = hub.tracer.dropped();
  return out;
}

constexpr auto kProtocolOnly = static_cast<std::uint32_t>(obs::Category::kProtocol);

TEST(FleetStream, SingleTestOverflowingTheChunkRingStreamsEveryEventInOrder) {
  // The reference ring holds the whole run; a 16-event chunk ring is smaller
  // than what one test records.
  obs::Hub whole;
  whole.tracer.set_category_mask(kProtocolOnly);
  const Streamed reference = run_streamed(small_day(FleetBackend::kPacket), whole, false);
  ASSERT_EQ(reference.trace_dropped, 0u);
  const std::size_t recorded = count_lines(reference.trace);
  ASSERT_GT(recorded, 16u * 20u);

  for (const std::size_t chunk : {1u, 37u, 256u}) {
    for (const std::size_t jobs : {1u, 4u}) {
      obs::Hub hub(16);
      hub.tracer.set_category_mask(kProtocolOnly);
      FleetSimConfig cfg = small_day(FleetBackend::kPacket);
      cfg.chunk = chunk;
      cfg.jobs = jobs;
      const Streamed streamed = run_streamed(cfg, hub, true);
      EXPECT_EQ(streamed.events, recorded) << "chunk=" << chunk << " jobs=" << jobs;
      EXPECT_TRUE(streamed.ordered) << "chunk=" << chunk << " jobs=" << jobs;
      EXPECT_EQ(streamed.trace_dropped, 0u) << "chunk=" << chunk << " jobs=" << jobs;
      EXPECT_EQ(streamed.trace, reference.trace) << "chunk=" << chunk << " jobs=" << jobs;
    }
  }
}

/// Ids are exactly 1..n in emission order, and every parent names one.
void expect_consistent_ids(const std::vector<obs::span::SpanRecord>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].id, i + 1);
    EXPECT_LE(spans[i].parent, spans.size()) << "span " << spans[i].id;
    EXPECT_NE(spans[i].parent, spans[i].id);
  }
}

TEST(FleetStream, SpansOverflowingChunkStoresComeOutWithOneIdSpace) {
  // Analytic spans at 1/2 sampling fill a 16-span chunk store many times
  // over; packet spans (parented trees) fill a 32-span one.
  FleetSimConfig analytic = small_day(FleetBackend::kAnalytic);
  analytic.sample.set_denominator(2);
  FleetSimConfig packet = small_day(FleetBackend::kPacket);
  for (const auto& [base, capacity] :
       {std::pair{analytic, std::size_t{16}}, {packet, std::size_t{32}}}) {
    obs::Hub whole;
    whole.tracer.set_category_mask(0);
    const Streamed reference = run_streamed(base, whole, false);
    ASSERT_GT(reference.records.size(), 4 * capacity);
    EXPECT_EQ(whole.spans.dropped(), 0u);
    expect_consistent_ids(reference.records);
    if (base.backend == FleetBackend::kPacket) {
      EXPECT_TRUE(std::any_of(reference.records.begin(), reference.records.end(),
                              [](const auto& r) { return r.parent != 0; }));
    }
    for (const std::size_t chunk : {1u, 37u, 256u}) {
      for (const std::size_t jobs : {1u, 4u}) {
        obs::Hub hub(obs::Tracer::kDefaultCapacity, capacity);
        hub.tracer.set_category_mask(0);
        FleetSimConfig cfg = base;
        cfg.chunk = chunk;
        cfg.jobs = jobs;
        const Streamed streamed = run_streamed(cfg, hub, true);
        expect_consistent_ids(streamed.records);
        EXPECT_EQ(hub.spans.dropped(), 0u);
        EXPECT_EQ(streamed.spans, reference.spans)
            << "capacity=" << capacity << " chunk=" << chunk << " jobs=" << jobs;
      }
    }
  }
}

TEST(FleetStream, WithoutSinksASmallRingStillCountsWhatItDrops) {
  obs::Hub whole;
  whole.tracer.set_category_mask(kProtocolOnly);
  const Streamed reference = run_streamed(small_day(FleetBackend::kPacket), whole, false);
  obs::Hub small(16);
  small.tracer.set_category_mask(kProtocolOnly);
  (void)run_streamed(small_day(FleetBackend::kPacket), small, false);
  EXPECT_EQ(small.tracer.size(), 16u);
  EXPECT_EQ(small.tracer.size() + small.tracer.dropped(), whole.tracer.size());
}

}  // namespace
}  // namespace swiftest::deploy
