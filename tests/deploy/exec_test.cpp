// Determinism contract of the partition-free execution plane (exec/exec.hpp
// + the chunked simulate_fleet): the work-stealing deque hands out each task
// exactly once, run_tasks covers [0, n) at any job count, the analytic
// backend is bit-exact for any chunk size, and no artifact — result, health
// JSON, metrics JSON, span JSON — may depend on `chunk` or `jobs`.
#include "exec/exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "dataset/generator.hpp"
#include "deploy/fleet_sim.hpp"
#include "obs/export.hpp"
#include "obs/health/report.hpp"
#include "obs/hub.hpp"
#include "obs/span/json.hpp"

namespace swiftest::deploy {
namespace {

using exec::resolve_jobs;
using exec::run_tasks;
using exec::WorkStealingDeque;

TEST(StreamSeed, StreamZeroIsIdentity) {
  EXPECT_EQ(core::stream_seed(42, 0), 42u);
  EXPECT_EQ(core::stream_seed(0xDEADBEEF, 0), 0xDEADBEEFull);
}

TEST(StreamSeed, StreamsAreDistinct) {
  // Every test keys its own testbed RNG stream by global draw index; the
  // streams must not collide.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 16; ++stream) {
    seeds.insert(core::stream_seed(99, stream));
  }
  EXPECT_EQ(seeds.size(), 16u);
}

TEST(WorkStealingDeque, OwnerTakesLifoThiefStealsFifo) {
  WorkStealingDeque dq(8);
  for (std::size_t t = 0; t < 5; ++t) EXPECT_TRUE(dq.push(t));
  EXPECT_EQ(dq.size(), 5u);
  std::size_t task = 99;
  ASSERT_TRUE(dq.take(task));
  EXPECT_EQ(task, 4u);  // owner pops the newest
  ASSERT_TRUE(dq.steal(task));
  EXPECT_EQ(task, 0u);  // thief claims the oldest
  ASSERT_TRUE(dq.steal(task));
  EXPECT_EQ(task, 1u);
  ASSERT_TRUE(dq.take(task));
  EXPECT_EQ(task, 3u);
  ASSERT_TRUE(dq.take(task));
  EXPECT_EQ(task, 2u);
  EXPECT_FALSE(dq.take(task));
  EXPECT_FALSE(dq.steal(task));
  EXPECT_EQ(dq.size(), 0u);
}

TEST(WorkStealingDeque, PushRefusesBeyondCapacity) {
  WorkStealingDeque dq(4);
  EXPECT_EQ(dq.capacity(), 4u);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_TRUE(dq.push(t));
  EXPECT_FALSE(dq.push(4));
  std::size_t task = 0;
  ASSERT_TRUE(dq.steal(task));  // frees the oldest slot
  EXPECT_TRUE(dq.push(4));
}

TEST(WorkStealingDeque, ReusableAfterDraining) {
  WorkStealingDeque dq(2);
  std::size_t task = 0;
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(dq.push(static_cast<std::size_t>(round)));
    ASSERT_TRUE(round % 2 == 0 ? dq.take(task) : dq.steal(task));
    EXPECT_EQ(task, static_cast<std::size_t>(round));
    EXPECT_FALSE(dq.take(task));
  }
}

TEST(ResolveJobs, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

TEST(RunTasks, CoversEveryTaskOnceAtAnyJobCount) {
  for (std::size_t jobs : {1u, 2u, 4u, 9u}) {
    std::vector<std::atomic<int>> hits(17);
    run_tasks(hits.size(), jobs, [&](std::size_t task) { ++hits[task]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  // Degenerate shapes.
  run_tasks(0, 4, [](std::size_t) { FAIL() << "no tasks to run"; });
  std::atomic<int> once{0};
  run_tasks(1, 8, [&](std::size_t) { ++once; });
  EXPECT_EQ(once.load(), 1);
}

TEST(RunTasks, PropagatesTheFirstException) {
  EXPECT_THROW(run_tasks(8, 4,
                         [](std::size_t task) {
                           if (task == 5) throw std::runtime_error("boom");
                         }),
               std::runtime_error);
}

const std::vector<dataset::TestRecord>& population() {
  static const auto records = dataset::generate_campaign(8'000, 2021, 5);
  return records;
}

FleetSimConfig base_config() {
  FleetSimConfig cfg;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 400.0;
  cfg.seed = 11;
  return cfg;
}

TEST(ChunkedFleet, AnalyticResultIsExactForAnyChunkSize) {
  const swift::ModelRegistry registry;
  FleetSimConfig cfg = base_config();
  const FleetSimResult reference = simulate_fleet(population(), registry, cfg);
  ASSERT_GT(reference.tests_simulated, 100u);

  for (std::size_t chunk : {7u, 64u, 100'000u}) {
    cfg.chunk = chunk;
    cfg.jobs = 2;
    const FleetSimResult chunked = simulate_fleet(population(), registry, cfg);
    EXPECT_EQ(chunked.tests_simulated, reference.tests_simulated);
    // Exact, not approximate: the numeric core runs serially over the whole
    // workload at merge, so every busy window matches bit for bit
    // regardless of the partition.
    ASSERT_EQ(chunked.busy_window_utilization.size(),
              reference.busy_window_utilization.size());
    for (std::size_t i = 0; i < reference.busy_window_utilization.size(); ++i) {
      EXPECT_DOUBLE_EQ(chunked.busy_window_utilization[i],
                       reference.busy_window_utilization[i]);
    }
    EXPECT_DOUBLE_EQ(chunked.overload_seconds_share,
                     reference.overload_seconds_share);
    EXPECT_DOUBLE_EQ(chunked.summary.mean, reference.summary.mean);
    EXPECT_DOUBLE_EQ(chunked.p99, reference.p99);
  }
}

TEST(ChunkedFleet, AnalyticHealthIdenticalAcrossPartitionAndJobs) {
  // The analytic health report folds per cell on up to `jobs` lanes; no
  // chunk size or lane count may change a byte of it.
  const swift::ModelRegistry registry;
  std::string reference;
  for (std::size_t chunk : {64u, 4096u}) {
    for (std::size_t jobs : {1u, 4u}) {
      FleetSimConfig cfg = base_config();
      cfg.tests_per_day = 20'000.0;
      cfg.chunk = chunk;
      cfg.jobs = jobs;
      obs::health::HealthMonitor health;
      cfg.health = &health;
      const FleetSimResult result = simulate_fleet(population(), registry, cfg);
      ASSERT_GT(result.tests_simulated, 10'000u);
      std::ostringstream out;
      obs::health::write_health_json(health.snapshot(), {}, nullptr, out);
      if (reference.empty()) {
        reference = out.str();
        EXPECT_NE(reference.find("egress_util"), std::string::npos);
      } else {
        EXPECT_EQ(out.str(), reference) << "chunk=" << chunk << " jobs=" << jobs;
      }
    }
  }
}

/// Every artifact a chunked run can produce, rendered to strings.
struct Artifacts {
  std::string health;
  std::string metrics;
  std::string spans;
  std::vector<double> busy_windows;
  std::uint64_t tests = 0;
};

Artifacts run_packet(std::size_t chunk, std::size_t jobs) {
  const swift::ModelRegistry registry;
  FleetSimConfig cfg = base_config();
  cfg.backend = FleetBackend::kPacket;
  cfg.tests_per_day = 150.0;
  cfg.chunk = chunk;
  cfg.jobs = jobs;

  obs::Hub hub;
  obs::health::HealthMonitor health;
  cfg.obs = &hub;
  cfg.health = &health;

  const FleetSimResult result = simulate_fleet(population(), registry, cfg);

  Artifacts artifacts;
  std::ostringstream health_out;
  obs::health::write_health_json(health.snapshot(), {}, nullptr, health_out);
  artifacts.health = health_out.str();
  std::ostringstream metrics_out;
  obs::write_metrics_json(hub.metrics.snapshot(), metrics_out);
  artifacts.metrics = metrics_out.str();
  std::ostringstream spans_out;
  obs::span::write_spans_json(hub.spans, spans_out);
  artifacts.spans = spans_out.str();
  artifacts.busy_windows = result.busy_window_utilization;
  artifacts.tests = result.tests_simulated;
  return artifacts;
}

TEST(ChunkedFleet, PacketArtifactsIndependentOfPartitionAndJobs) {
  // The partition-invariance property, as a test: byte-identical rendered
  // artifacts across the {chunk} x {jobs} matrix. The reference is the
  // serial run at the default chunk size.
  const Artifacts reference = run_packet(0, 1);
  // The workload itself is pinned too, so a change to what a packet
  // fleet-day simulates cannot hide behind the invariance.
  ASSERT_EQ(reference.tests, 164u);
  EXPECT_EQ(reference.busy_windows.size(), 319u);
  for (std::size_t chunk : {16u, 64u}) {
    for (std::size_t jobs : {1u, 4u, 8u}) {
      if (chunk == 16 && jobs == 1) continue;  // covered by the reference shape
      const Artifacts run = run_packet(chunk, jobs);
      EXPECT_EQ(run.tests, reference.tests)
          << "chunk=" << chunk << " jobs=" << jobs;
      EXPECT_EQ(run.busy_windows, reference.busy_windows)
          << "chunk=" << chunk << " jobs=" << jobs;
      // Byte-identical JSON, not merely equivalent: outputs merge in chunk
      // order after the pool joins and the stores canonicalize, so neither
      // the partition nor thread scheduling can leak into any artifact.
      EXPECT_EQ(run.health, reference.health)
          << "chunk=" << chunk << " jobs=" << jobs;
      EXPECT_EQ(run.metrics, reference.metrics)
          << "chunk=" << chunk << " jobs=" << jobs;
      EXPECT_EQ(run.spans, reference.spans)
          << "chunk=" << chunk << " jobs=" << jobs;
    }
  }
}

}  // namespace
}  // namespace swiftest::deploy
