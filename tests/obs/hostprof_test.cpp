// The thread-aware host-time profiler (obs/hostprof/): interval nesting and
// ring bounds, the PROF JSONL round trip, the Chrome trace rendering, and —
// on synthetic data with known arithmetic — the Amdahl attribution report.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"

namespace swiftest::obs::hostprof {
namespace {

TEST(HostScope, NestedScopesRecordDepthAndAggregates) {
  HostProfiler prof;
  Timeline& tl = prof.main();
  {
    HostScope outer(&tl, "outer");
    { HostScope inner(&tl, "inner", 7); }
    { HostScope inner(&tl, "inner", 8); }
  }
  const auto intervals = tl.intervals();
  ASSERT_EQ(intervals.size(), 3u);
  // Closed in completion order: inner, inner, outer.
  EXPECT_STREQ(intervals[0].phase, "inner");
  EXPECT_EQ(intervals[0].depth, 1u);
  EXPECT_EQ(intervals[0].arg, 7u);
  EXPECT_STREQ(intervals[1].phase, "inner");
  EXPECT_EQ(intervals[1].arg, 8u);
  EXPECT_STREQ(intervals[2].phase, "outer");
  EXPECT_EQ(intervals[2].depth, 0u);
  // The outer interval spans both inner ones.
  EXPECT_LE(intervals[2].t0_ns, intervals[0].t0_ns);
  EXPECT_GE(intervals[2].t0_ns + intervals[2].dur_ns,
            intervals[1].t0_ns + intervals[1].dur_ns);

  ASSERT_EQ(tl.phase_aggs().size(), 2u);
  const PhaseAgg& inner_agg = tl.phase_aggs()[0].second;
  EXPECT_EQ(inner_agg.name, "inner");
  EXPECT_EQ(inner_agg.count, 2u);
  const PhaseAgg& outer_agg = tl.phase_aggs()[1].second;
  EXPECT_EQ(outer_agg.count, 1u);
  EXPECT_GE(outer_agg.total_ns, inner_agg.total_ns);
}

TEST(HostScope, NullTimelineIsANoOp) {
  HostScope scope(nullptr, "ignored");  // must not crash or read the clock
  SUCCEED();
}

TEST(Timeline, RingOverwritesOldestButAggregatesStayExact) {
  HostProfiler prof(/*capacity_per_timeline=*/4);
  Timeline& tl = prof.main();
  for (int i = 0; i < 10; ++i) {
    HostScope scope(&tl, "phase", static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tl.interval_count(), 4u);
  EXPECT_EQ(tl.dropped(), 6u);
  const auto intervals = tl.intervals();
  ASSERT_EQ(intervals.size(), 4u);
  // Oldest retained first: args 6, 7, 8, 9.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(intervals[i].arg, 6u + i);
  }
  // Aggregates counted every interval, drops notwithstanding.
  ASSERT_EQ(tl.phase_aggs().size(), 1u);
  EXPECT_EQ(tl.phase_aggs()[0].second.count, 10u);
}

TEST(HostProfiler, ReserveWorkersCreatesStableTimelines) {
  HostProfiler prof;
  prof.reserve_workers(3);
  EXPECT_EQ(prof.worker(0).tid(), 1u);
  EXPECT_EQ(prof.worker(2).tid(), 3u);
  prof.reserve_workers(2);  // shrink request: no-op
  EXPECT_EQ(prof.worker(2).tid(), 3u);
  prof.set_run_shape(8, 3);
  prof.finish();
  const ProfData data = prof.snapshot();
  EXPECT_EQ(data.chunks, 8u);
  EXPECT_EQ(data.jobs, 3u);
  ASSERT_EQ(data.timelines.size(), 4u);
  EXPECT_EQ(data.timelines[0].tid, 0u);
  EXPECT_GT(data.wall_ns, 0u);
}

/// Synthetic profile with round numbers so every report statistic has a
/// closed-form expectation: wall 100ms; pool region 60ms; two workers, busy
/// 50ms + 30ms (idle 10ms + 30ms); chunks 40/10/20/10ms.
ProfData synthetic_profile() {
  ProfData data;
  data.chunks = 4;
  data.jobs = 2;
  data.wall_ns = 100'000'000;

  TimelineData main_tl;
  main_tl.tid = 0;
  main_tl.phases.push_back({kPhasePool, 1, 60'000'000, 60'000'000});
  main_tl.phases.push_back({"merge", 1, 30'000'000, 30'000'000});
  main_tl.intervals.push_back({"workload.gen", 0, 10'000'000, 0, 0});
  main_tl.intervals.push_back({kPhasePool, 10'000'000, 60'000'000, 0, 0});
  main_tl.intervals.push_back({"merge", 70'000'000, 30'000'000, 0, 0});
  data.timelines.push_back(main_tl);

  TimelineData w1;
  w1.tid = 1;
  w1.worker = {true, 50'000'000, 10'000'000, 60'000'000, 3, 1, 2};
  w1.phases.push_back({kPhaseChunk, 2, 50'000'000, 40'000'000});
  w1.intervals.push_back({kPhaseChunk, 10'000'000, 40'000'000, 0, 0});
  w1.intervals.push_back({kPhaseChunk, 50'000'000, 10'000'000, 0, 2});
  data.timelines.push_back(w1);

  TimelineData w2;
  w2.tid = 2;
  w2.worker = {true, 30'000'000, 30'000'000, 60'000'000, 3, 0, 2};
  w2.phases.push_back({kPhaseChunk, 2, 30'000'000, 20'000'000});
  w2.intervals.push_back({kPhaseChunk, 10'000'000, 20'000'000, 0, 1});
  w2.intervals.push_back({kPhaseChunk, 30'000'000, 10'000'000, 0, 3});
  data.timelines.push_back(w2);
  return data;
}

TEST(AnalyzeProf, AmdahlAttributionOnSyntheticData) {
  const ProfReport report = analyze_prof(synthetic_profile());
  EXPECT_EQ(report.wall_ns, 100'000'000u);
  EXPECT_EQ(report.pool_wall_ns, 60'000'000u);
  EXPECT_EQ(report.serial_ns, 40'000'000u);   // wall - pool
  EXPECT_EQ(report.busy_ns, 80'000'000u);     // 50 + 30
  EXPECT_EQ(report.idle_ns, 40'000'000u);
  EXPECT_EQ(report.workers, 2u);
  // s = 40 / (40 + 80) = 1/3; max speedup 3x.
  EXPECT_NEAR(report.serial_fraction, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(report.amdahl_max_speedup, 3.0, 1e-9);
  // At 2 jobs: work 120 / (40 + 80/2) = 1.5x.
  EXPECT_NEAR(report.amdahl_speedup_at_jobs, 1.5, 1e-9);
  // busy 80 over 2 workers * 60 pool wall = 2/3.
  EXPECT_NEAR(report.parallel_efficiency, 2.0 / 3.0, 1e-9);
  // Chunks 40/10/20/10: max 40 over mean 20.
  EXPECT_NEAR(report.shard_imbalance, 2.0, 1e-9);
  // Main depth-0 coverage: 10 + 60 + 30 = 100 of 100.
  EXPECT_NEAR(report.main_coverage, 1.0, 1e-9);
  ASSERT_EQ(report.slowest_chunks.size(), 4u);
  EXPECT_EQ(report.slowest_chunks[0].chunk, 0u);
  EXPECT_EQ(report.slowest_chunks[0].dur_ns, 40'000'000u);
  EXPECT_EQ(report.slowest_chunks[0].tid, 1u);
  // Phase table ranked by total time descending.
  ASSERT_GE(report.phases.size(), 3u);
  EXPECT_EQ(report.phases[0].name, kPhaseChunk);  // 80ms summed over workers
  EXPECT_EQ(report.phases[0].total_ns, 80'000'000u);
  EXPECT_NEAR(report.phases[0].pct_of_wall, 80.0, 1e-9);
}

TEST(AnalyzeProf, ZeroSerialMeansUnboundedAmdahl) {
  ProfData data = synthetic_profile();
  data.wall_ns = 60'000'000;  // pool region is the whole run
  const ProfReport report = analyze_prof(data);
  EXPECT_EQ(report.serial_ns, 0u);
  EXPECT_EQ(report.serial_fraction, 0.0);
  EXPECT_TRUE(std::isinf(report.amdahl_max_speedup));
}

TEST(ProfJsonl, RoundTripsThroughWriterAndReader) {
  const ProfData data = synthetic_profile();
  std::ostringstream out;
  write_prof_jsonl(data, out);

  std::istringstream in(out.str());
  std::string error;
  const auto loaded = read_prof_jsonl(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->chunks, data.chunks);
  EXPECT_EQ(loaded->jobs, data.jobs);
  EXPECT_EQ(loaded->wall_ns, data.wall_ns);
  ASSERT_EQ(loaded->timelines.size(), 3u);
  const TimelineData& w1 = loaded->timelines[1];
  EXPECT_EQ(w1.tid, 1u);
  EXPECT_TRUE(w1.worker.valid);
  EXPECT_EQ(w1.worker.busy_ns, 50'000'000u);
  EXPECT_EQ(w1.worker.pulls, 3u);
  ASSERT_EQ(w1.intervals.size(), 2u);
  EXPECT_EQ(w1.intervals[0].phase, kPhaseChunk);
  EXPECT_EQ(w1.intervals[1].arg, 2u);
  ASSERT_EQ(loaded->timelines[0].phases.size(), 2u);
  EXPECT_EQ(loaded->timelines[0].phases[0].name, kPhasePool);
  EXPECT_EQ(loaded->timelines[0].phases[0].total_ns, 60'000'000u);

  // The analysis of the round-tripped data matches the original's.
  const ProfReport a = analyze_prof(data);
  const ProfReport b = analyze_prof(*loaded);
  EXPECT_EQ(a.busy_ns, b.busy_ns);
  EXPECT_EQ(a.serial_ns, b.serial_ns);
  EXPECT_DOUBLE_EQ(a.serial_fraction, b.serial_fraction);
}

TEST(ProfJsonl, ReaderRejectsMalformedInput) {
  std::string error;
  {
    std::istringstream in("{\"type\":\"interval\",\"tid\":0}\n");
    EXPECT_FALSE(read_prof_jsonl(in, &error).has_value());
    EXPECT_NE(error.find("line 1"), std::string::npos);
    EXPECT_NE(error.find("missing field"), std::string::npos);
  }
  {
    std::istringstream in("{\"type\":\"mystery\"}\n");
    EXPECT_FALSE(read_prof_jsonl(in, &error).has_value());
    EXPECT_NE(error.find("unknown record type"), std::string::npos);
  }
  {
    std::istringstream in("{\"type\":\"timeline\",\"tid\":0,\"dropped\":0}\n");
    EXPECT_FALSE(read_prof_jsonl(in, &error).has_value());
    EXPECT_NE(error.find("no meta record"), std::string::npos);
  }
  {
    std::istringstream in("not json at all\n");
    EXPECT_FALSE(read_prof_jsonl(in, &error).has_value());
  }
}

TEST(ProfChromeTrace, OneNamedTrackPerTimeline) {
  std::ostringstream out;
  write_prof_chrome_trace(synthetic_profile(), out);
  const std::string trace = out.str();
  EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(trace.find("{\"name\":\"main\"}"), std::string::npos);
  EXPECT_NE(trace.find("{\"name\":\"worker 1\"}"), std::string::npos);
  EXPECT_NE(trace.find("{\"name\":\"worker 2\"}"), std::string::npos);
  // Complete events carry microsecond timestamps: 10ms -> 10000.000.
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ts\":10000.000"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":60000.000"), std::string::npos);
}

TEST(ProfReportMarkdown, RendersHeadlineNumbersAndTables) {
  const ProfReport report = analyze_prof(synthetic_profile());
  std::ostringstream out;
  write_prof_report_markdown(report, out);
  const std::string md = out.str();
  EXPECT_NE(md.find("# Host-time profile"), std::string::npos);
  EXPECT_NE(md.find("serial fraction: 0.333"), std::string::npos);
  EXPECT_NE(md.find("Amdahl max speedup: 3.00x"), std::string::npos);
  EXPECT_NE(md.find("parallel efficiency 66.7%"), std::string::npos);
  EXPECT_NE(md.find("## Workers"), std::string::npos);
  EXPECT_NE(md.find("| w1 |"), std::string::npos);
  EXPECT_NE(md.find("## Slowest chunks"), std::string::npos);
}

// `profile report` reads a PROF JSONL file it did not write, and a killed
// run leaves a prefix of one on disk. Every byte prefix must either parse
// as the whole records it holds (it ends on a line boundary past the meta
// line) or be refused with a reason: never a crash or a partial record.
TEST(ProfJsonl, EveryPrefixParsesWholeRecordsOrFailsCleanly) {
  std::ostringstream out;
  write_prof_jsonl(synthetic_profile(), out);
  const std::string doc = out.str();
  const std::size_t meta_end = doc.find('\n');
  ASSERT_NE(meta_end, std::string::npos);
  for (std::size_t n = 0; n <= doc.size(); ++n) {
    const std::string prefix = doc.substr(0, n);
    const bool whole_lines =
        n >= meta_end && (n == doc.size() || doc[n] == '\n' || doc[n - 1] == '\n');
    std::istringstream in(prefix);
    std::string error;
    const auto data = read_prof_jsonl(in, &error);
    ASSERT_EQ(data.has_value(), whole_lines) << "prefix of " << n << " bytes: " << error;
    if (!data) {
      EXPECT_FALSE(error.empty()) << "prefix of " << n << " bytes";
      continue;
    }
    std::size_t intervals = 0;
    for (const TimelineData& tl : data->timelines) intervals += tl.intervals.size();
    std::size_t interval_lines = 0;
    for (std::size_t at = prefix.find("\"interval\""); at != std::string::npos;
         at = prefix.find("\"interval\"", at + 1)) {
      ++interval_lines;
    }
    EXPECT_EQ(intervals, interval_lines) << "prefix of " << n << " bytes";
  }
}

TEST(ProfJsonl, ReaderRejectsVersionOneShardFields) {
  // Version-1 files named the task count "shards"; the reader now requires
  // the chunk-plane field and names it in the error.
  std::istringstream in(
      "{\"type\":\"meta\",\"tool\":\"swiftest\",\"version\":1,\"shards\":4,"
      "\"jobs\":2,\"timelines\":1,\"wall_ns\":100}\n");
  std::string error;
  EXPECT_FALSE(read_prof_jsonl(in, &error).has_value());
  EXPECT_NE(error.find("line 1: missing field \"chunks\""), std::string::npos)
      << error;
}

}  // namespace
}  // namespace swiftest::obs::hostprof
