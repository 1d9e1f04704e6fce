// Resource self-telemetry (obs/resource.hpp): deterministic per-shard
// counters aggregate and export separately from host measurements (RSS,
// wall time), and the bounded SampleLog degrades by counting drops instead
// of growing without bound.
#include "obs/resource.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/health/report.hpp"
#include "obs/health/sample_log.hpp"
#include "obs/metrics.hpp"

namespace swiftest::obs {
namespace {

TEST(ReadResourceUsage, ReportsLiveProcessMemoryOnLinux) {
  const ResourceUsage usage = read_resource_usage();
  // /proc is available on every platform this repo targets; a running test
  // binary resides in more than 1 MB.
  EXPECT_GT(usage.rss_mb, 1.0);
  // Peak is clamped to at least the current reading.
  EXPECT_GE(usage.peak_rss_mb, usage.rss_mb);
}

TEST(ResourceMonitor, ProgressSideCountsTestsAndShards) {
  ResourceMonitor monitor;
  monitor.begin_run();
  for (int i = 0; i < 3; ++i) monitor.note_shard_drawn();
  monitor.add_tests(100);
  monitor.add_tests(25);
  monitor.note_shard_done();
  EXPECT_EQ(monitor.tests_done(), 125u);
  EXPECT_EQ(monitor.shards_done(), 1u);

  // While the draw runs, the count is the shards drawn so far.
  std::string line = monitor.progress_line();
  EXPECT_NE(line.find("125 tests"), std::string::npos) << line;
  EXPECT_NE(line.find("shards 1/3+"), std::string::npos) << line;
  EXPECT_NE(line.find("rss"), std::string::npos) << line;

  // Once it ends, the count is final.
  monitor.note_shard_drawn();
  monitor.end_draw();
  line = monitor.progress_line();
  EXPECT_NE(line.find("shards 1/4 "), std::string::npos) << line;

  // begin_run resets the counters for the next run.
  monitor.begin_run();
  EXPECT_EQ(monitor.tests_done(), 0u);
  EXPECT_EQ(monitor.shards_done(), 0u);
  EXPECT_EQ(monitor.shards_drawn(), 0u);
}

ShardTelemetry make_shard(std::size_t shard) {
  ShardTelemetry t;
  t.shard = shard;
  t.wall_seconds = 0.5;
  t.tests = 10;
  t.events_executed = 1000;
  t.slab_slots = 32;
  t.transit_nodes = 64;
  t.transit_peak_live = 48;
  t.calendar_sweeps = 7;
  t.health_dropped = 2;
  return t;
}

TEST(ResourceMonitor, ShardTelemetryAggregates) {
  ResourceMonitor monitor;
  monitor.begin_run();
  monitor.record_shard(make_shard(0));
  monitor.record_shard(make_shard(1));
  monitor.finish_run(1.25);

  const auto shards = monitor.shard_telemetry();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(shards[0].shard, 0u);
  EXPECT_EQ(shards[1].tests, 10u);

  health::ReportMeta meta;
  monitor.append_report_meta(meta);
  const auto find = [&meta](const std::string& key) -> std::string {
    for (const auto& [k, v] : meta) {
      if (k == key) return v;
    }
    return "<missing>";
  };
  EXPECT_EQ(find("obs.wall_s"), "1.250");
  EXPECT_EQ(find("obs.chunks"), "2");
  EXPECT_EQ(find("obs.chunk_wall_max_s"), "0.500000");
  EXPECT_EQ(find("obs.chunk_wall_p95_s"), "0.500000");
  EXPECT_EQ(find("obs.shard_wall_s"), "<missing>");
  EXPECT_EQ(find("obs.events_executed"), "2000");
  EXPECT_EQ(find("obs.slab_slots"), "64");
  EXPECT_EQ(find("obs.transit_peak_live"), "96");
  EXPECT_EQ(find("obs.calendar_sweeps"), "14");
  EXPECT_EQ(find("obs.health_dropped"), "4");
  EXPECT_NE(find("obs.peak_rss_mb"), "<missing>");
}

// The chunk walls reach the meta as three values however many chunks ran:
// count, max and the nearest-rank p95 (the 19th of 20 here).
TEST(ResourceMonitor, ChunkWallsSummarizeToCountMaxAndP95) {
  ResourceMonitor monitor;
  monitor.begin_run();
  for (int i = 20; i >= 1; --i) {
    ShardTelemetry t = make_shard(static_cast<std::size_t>(i));
    t.wall_seconds = 0.01 * i;
    monitor.record_shard(t);
  }
  monitor.finish_run(1.0);
  health::ReportMeta meta;
  monitor.append_report_meta(meta);
  std::map<std::string, std::string> values(meta.begin(), meta.end());
  EXPECT_EQ(values["obs.chunks"], "20");
  EXPECT_EQ(values["obs.chunk_wall_max_s"], "0.200000");
  EXPECT_EQ(values["obs.chunk_wall_p95_s"], "0.190000");
  EXPECT_EQ(monitor.shard_telemetry().size(), 20u);
}

TEST(ResourceMonitor, ExportMetricsWritesOnlyNonzeroCounters) {
  ResourceMonitor monitor;
  monitor.begin_run();
  ShardTelemetry t;
  t.slab_slots = 5;
  t.calendar_sweeps = 9;
  monitor.record_shard(t);

  MetricsRegistry metrics;
  monitor.export_metrics(metrics);
  const MetricsSnapshot snapshot = metrics.snapshot();
  std::uint64_t slab = 0;
  std::uint64_t sweeps = 0;
  for (const auto& [name, value] : snapshot.counters) {
    // Zero-valued telemetry must not appear at all: runs that never touch a
    // subsystem keep byte-identical metrics artifacts.
    EXPECT_NE(value, 0u) << name;
    if (name == "obs.resource.slab_slots") slab = value;
    if (name == "obs.resource.calendar_sweeps") sweeps = value;
  }
  EXPECT_EQ(slab, 5u);
  EXPECT_EQ(sweeps, 9u);
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_EQ(name.find("obs.resource.transit"), std::string::npos)
        << "zero transit telemetry must stay absent: " << name;
  }
}

TEST(ResourceMonitor, PeakRssTracksSamples) {
  ResourceMonitor monitor;
  monitor.begin_run();
  const ResourceUsage usage = read_resource_usage();
  EXPECT_GE(monitor.peak_rss_mb(), usage.rss_mb);
}

// ---------------------------------------------------------------------------
// SampleLog bounds (obs/health/sample_log.hpp): drop-newest with accounting.

TEST(SampleLogBounds, DropsNewestPastCapacityAndCounts) {
  health::SampleLog log({}, 4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int i = 0; i < 10; ++i) {
    health::SampleLog::TestEntry entry;
    entry.duration_s = static_cast<double>(i);
    log.record_test(entry);
  }
  // The buffered prefix is exactly what an unbounded log would fold first.
  EXPECT_EQ(log.sample_count(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  ASSERT_EQ(log.tests().size(), 4u);
  EXPECT_EQ(log.tests().back().duration_s, 3.0);

  // Egress samples share the sample cap.
  log.record_egress_utilization(1, 50.0);
  EXPECT_EQ(log.sample_count(), 4u);
  EXPECT_TRUE(log.egress().empty());
  EXPECT_EQ(log.dropped(), 7u);

  // Arrivals are bounded independently with the same policy.
  for (int i = 0; i < 6; ++i) log.note_arrival(static_cast<double>(i));
  EXPECT_EQ(log.arrival_times().size(), 4u);
  EXPECT_EQ(log.arrival_times().front(), 0.0);
  EXPECT_EQ(log.dropped(), 9u);
}

TEST(SampleLogBounds, ZeroCapacityClampsToOne) {
  health::SampleLog log({}, 0);
  EXPECT_EQ(log.capacity(), 1u);
  log.note_arrival(1.0);
  log.note_arrival(2.0);
  EXPECT_EQ(log.arrival_times().size(), 1u);
  EXPECT_EQ(log.dropped(), 1u);
}

TEST(SampleLogBounds, RecordsAreFixedSize) {
  // Three doubles plus four 32-bit dimension ids: no per-test heap payload.
  EXPECT_EQ(sizeof(health::SampleLog::TestEntry), 40u);
  EXPECT_EQ(sizeof(health::SampleLog::EgressEntry), 16u);
}

TEST(SampleLogBounds, InternsDimensionsPerLog) {
  // A log records ids into the table it is handed; an id outside it is
  // refused, and nothing is recorded.
  const std::vector<std::string> table = {"tech:4g", "isp:1"};
  health::SampleLog log(table);
  EXPECT_EQ(log.dimensions().data(), table.data());
  EXPECT_EQ(log.dimensions().size(), 2u);
  health::SampleLog::TestEntry good;
  good.dims = {1, 0, 1, health::SampleLog::kNoDim};
  log.record_test(good);
  EXPECT_EQ(log.sample_count(), 1u);

  health::SampleLog::TestEntry bad;
  bad.dims[0] = 2;  // one past the table
  EXPECT_THROW(log.record_test(bad), std::out_of_range);
  EXPECT_EQ(log.sample_count(), 1u);

  // A log without a table holds no test with a dimension.
  health::SampleLog bare;
  bad.dims[0] = 0;
  EXPECT_THROW(bare.record_test(bad), std::out_of_range);
  EXPECT_EQ(bare.sample_count(), 0u);
}

TEST(SampleLogBounds, InternsMoreKeysThanSixteenBitIdsHold) {
  // A large fleet's table holds more servers than a 16-bit id could name;
  // every key keeps its own id and the records fold by name.
  constexpr std::uint32_t kKeys = 70000;
  std::vector<std::string> table;
  for (std::uint32_t s = 0; s < kKeys; ++s) table.push_back("server:" + std::to_string(s));
  health::SampleLog log(table);
  for (std::uint32_t s = 0; s < kKeys; ++s) {
    health::SampleLog::TestEntry e;
    e.duration_s = static_cast<double>(s);
    e.dims[0] = s;
    log.record_test(e);
  }
  EXPECT_EQ(log.tests().back().dims[0], kKeys - 1);
  EXPECT_EQ(log.dimensions().size(), kKeys);

  health::HealthMonitor monitor;
  health::LogFold fold(monitor, 1, table);
  health::LogFold::Committed committed;
  fold.commit(log, committed);
  fold.fold(0, committed);
  fold.finish();
  const health::HealthSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.tests, kKeys);
  EXPECT_EQ(snap.metrics.at(health::kMetricDuration).size(), kKeys + 1);  // + "all"
  const auto* last = snap.find(health::kMetricDuration, "server:69999");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->count, 1u);
  EXPECT_EQ(last->max, 69999.0);
}

TEST(SampleLogBounds, DefaultCapacityIsBounded) {
  // The default is a hard ceiling (4M entries), not "unbounded": fleet-scale
  // days degrade by dropping + counting, never by OOM.
  EXPECT_EQ(health::SampleLog::kDefaultCapacity, 1u << 22);
}

}  // namespace
}  // namespace swiftest::obs
