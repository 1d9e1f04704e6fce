// Determinism contract of the partition-free execution plane (exec/exec.hpp
// + the chunked simulate_fleet): run_tasks covers [0, n) at any job count
// and stops drawing after a throw, run_stream commits and folds in item
// order inside its ring, the analytic backend is bit-exact for any chunk
// size, and no artifact — result, health JSON, metrics JSON, span JSON —
// may depend on `chunk` or `jobs`.
#include "exec/exec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
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
using exec::run_stream;
using exec::run_tasks;
using exec::stream_ring;
using exec::StreamStages;

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

// A throw stops the draw: task 0 never commits, so the ring never frees a
// slot and nothing past stream_ring(jobs) is drawn, let alone run.
TEST(RunTasks, StopsDrawingAfterAThrow) {
  constexpr std::size_t kJobs = 4;
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(run_tasks(1000, kJobs,
                         [&](std::size_t task) {
                           ran.fetch_add(1);
                           if (task == 0) throw std::runtime_error("boom");
                         }),
               std::runtime_error);
  EXPECT_GE(ran.load(), 1u);
  EXPECT_LE(ran.load(), stream_ring(kJobs));
}

/// A stream of `items` items over `lanes` lanes that records what every
/// stage saw: the order of commits and of each lane's folds, how often each
/// item ran, and the most items live (drawn, not folded by every lane) at
/// any moment — checked against the ring on every draw.
struct StreamLog {
  StreamLog(std::size_t items, std::size_t lanes, std::size_t ring)
      : items(items), ring(ring), runs(items), folds(lanes), lane_passes(items) {}

  StreamStages stages(std::size_t lanes) {
    StreamStages s;
    s.draw = [this](std::size_t item) {
      EXPECT_EQ(item, drawn);
      if (item == items) return false;
      ++drawn;
      const std::size_t now = live.fetch_add(1) + 1;
      EXPECT_LE(now, ring) << "item " << item;
      std::size_t seen = peak.load();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      return true;
    };
    s.run = [this](std::size_t item) {
      if (delay) delay(item);
      ++runs[item];
    };
    s.commit = [this](std::size_t item) {
      EXPECT_EQ(runs[item].load(), 1) << "committed before it ran: " << item;
      const std::lock_guard<std::mutex> lock(mutex);
      commits.push_back(item);
      if (lane_count == 0) live.fetch_sub(1);
    };
    s.lanes = lanes;
    lane_count = lanes;
    s.fold = [this](std::size_t lane, std::size_t item) {
      {
        const std::lock_guard<std::mutex> lock(mutex);
        EXPECT_LT(item, commits.size()) << "folded before it was committed";
        folds[lane].push_back(item);
      }
      if (fold_delay) fold_delay(lane, item);
      if (lane_passes[item].fetch_add(1) + 1 == lane_count) live.fetch_sub(1);
    };
    return s;
  }

  void expect_in_order() const {
    ASSERT_EQ(commits.size(), items);
    for (std::size_t i = 0; i < items; ++i) {
      EXPECT_EQ(commits[i], i);
      EXPECT_EQ(runs[i].load(), 1) << "item " << i;
    }
    for (const std::vector<std::size_t>& lane : folds) {
      ASSERT_EQ(lane.size(), items);
      for (std::size_t i = 0; i < items; ++i) EXPECT_EQ(lane[i], i);
    }
  }

  const std::size_t items;
  const std::size_t ring;
  std::size_t lane_count = 0;
  std::size_t drawn = 0;  // calling thread only
  std::vector<std::atomic<int>> runs;
  std::mutex mutex;
  std::vector<std::size_t> commits;
  std::vector<std::vector<std::size_t>> folds;  // [lane] items in fold order
  std::vector<std::atomic<std::size_t>> lane_passes;
  std::atomic<std::size_t> live{0};
  std::atomic<std::size_t> peak{0};
  std::function<void(std::size_t)> delay;
  std::function<void(std::size_t, std::size_t)> fold_delay;
};

/// A pseudo-random pause of up to `max_us` microseconds, fixed per key.
void pause_for(std::uint64_t key, int max_us) {
  core::Rng rng(key);
  std::this_thread::sleep_for(std::chrono::microseconds(rng.uniform_int(0, max_us)));
}

TEST(RunStream, CommitsAndFoldsInOrderUnderRandomTaskDurations) {
  for (const std::size_t jobs : {2u, 3u, 8u}) {
    for (const std::size_t lanes : {0u, 1u, 3u}) {
      StreamLog log(120, lanes, stream_ring(jobs));
      log.delay = [&](std::size_t item) { pause_for(item * 31 + jobs, 300); };
      log.fold_delay = [&](std::size_t lane, std::size_t item) {
        pause_for(item * 7 + lane, 100);
      };
      const std::size_t peak = run_stream(jobs, log.stages(lanes));
      log.expect_in_order();
      EXPECT_EQ(peak, stream_ring(jobs)) << "jobs=" << jobs << " lanes=" << lanes;
      EXPECT_EQ(log.live.load(), 0u);
    }
  }
}

TEST(RunStream, LiveItemsNeverExceedTheRing) {
  // Slow lanes hold every slot: the draw must wait for them, never run
  // ahead of the ring. The draw-side check in StreamLog fails the test on
  // the first item past it.
  constexpr std::size_t kJobs = 2;
  StreamLog log(64, 2, stream_ring(kJobs));
  log.fold_delay = [](std::size_t lane, std::size_t item) {
    if (lane == 1) pause_for(item, 400);
  };
  const std::size_t peak = run_stream(kJobs, log.stages(2));
  log.expect_in_order();
  EXPECT_EQ(peak, stream_ring(kJobs));
  EXPECT_EQ(log.peak.load(), stream_ring(kJobs));

  // Fewer items than the ring: every item is live at once, no more.
  StreamLog small(3, 1, stream_ring(kJobs));
  EXPECT_EQ(run_stream(kJobs, small.stages(1)), 3u);
  small.expect_in_order();
  // No items at all.
  StreamLog empty(0, 1, stream_ring(kJobs));
  EXPECT_EQ(run_stream(kJobs, empty.stages(1)), 0u);
}

TEST(RunStream, AThrowingStageIsRethrownWithoutDeadlockWhenTheRingIsFull) {
  constexpr std::size_t kJobs = 2;
  const std::size_t ring = stream_ring(kJobs);
  // The draw fills every slot before the first commit, so the first item's
  // commit and fold find the ring full, and its run waits until it is; the
  // draw throws mid-fill. Every stage but the draw then throws with the
  // draw blocked on the full ring.
  for (const std::string stage : {"run", "commit", "fold", "draw"}) {
    StreamLog log(200, 1, ring);
    std::atomic<bool> full_at_throw{false};
    StreamStages s = log.stages(1);
    const auto throw_here = [&](const std::string& here) {
      if (here == "run") {
        while (log.live.load() < ring) std::this_thread::yield();
      }
      full_at_throw = log.live.load() >= ring;
      throw std::runtime_error(here);
    };
    const auto run = s.run;
    s.run = [&, run](std::size_t item) {
      run(item);
      if (stage == "run" && item == 0) throw_here("run");
    };
    const auto commit = s.commit;
    s.commit = [&, commit](std::size_t item) {
      if (stage == "commit" && item == 0) throw_here("commit");
      commit(item);
    };
    const auto fold = s.fold;
    s.fold = [&, fold](std::size_t lane, std::size_t item) {
      if (stage == "fold" && item == 0) throw_here("fold");
      fold(lane, item);
    };
    const auto draw = s.draw;
    s.draw = [&, draw](std::size_t item) {
      if (stage == "draw" && item == ring / 2) throw_here("draw");
      return draw(item);
    };
    try {
      run_stream(kJobs, s);
      ADD_FAILURE() << "no exception from " << stage;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), stage);
    }
    EXPECT_EQ(full_at_throw.load(), stage != "draw") << stage;
    EXPECT_LT(log.commits.size(), 200u) << stage;
  }
}

TEST(RunStream, OneJobRunsInlineInOrder) {
  StreamLog log(10, 2, stream_ring(1));
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> events;
  StreamStages s = log.stages(2);
  const auto wrap = [&](const char* name, std::size_t item) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    events.push_back(std::string(name) + std::to_string(item));
  };
  const auto draw = s.draw;
  s.draw = [&, draw](std::size_t item) {
    wrap("d", item);
    return draw(item);
  };
  const auto run = s.run;
  s.run = [&, run](std::size_t item) {
    wrap("r", item);
    run(item);
  };
  const auto commit = s.commit;
  s.commit = [&, commit](std::size_t item) {
    wrap("c", item);
    commit(item);
  };
  const auto fold = s.fold;
  s.fold = [&, fold](std::size_t lane, std::size_t item) {
    wrap(lane == 0 ? "f" : "g", item);
    fold(lane, item);
  };
  EXPECT_EQ(stream_ring(1), 1u);
  EXPECT_EQ(run_stream(1, s), 1u);
  log.expect_in_order();
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 10; ++i) {
    for (const char* name : {"d", "r", "c", "f", "g"}) {
      expected.push_back(name + std::to_string(i));
    }
  }
  expected.push_back("d10");
  EXPECT_EQ(events, expected);
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

  // Chunk 1, odd chunks, and one chunk on more workers than chunks.
  for (const auto& [chunk, jobs] : {std::pair<std::size_t, std::size_t>{1, 2},
                                   {7, 2}, {37, 4}, {64, 2}, {100'000, 8}}) {
    cfg.chunk = chunk;
    cfg.jobs = jobs;
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
  for (std::size_t chunk : {1u, 37u, 64u, 4096u, 100'000u}) {
    for (std::size_t jobs : {1u, 4u, 8u}) {
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
  // Besides {16, 64} x {1, 4, 8}: chunk 1, an odd chunk, and a single chunk
  // on more workers than chunks.
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {{1, 4}, {37, 8}, {4096, 8}};
  for (std::size_t chunk : {16u, 64u}) {
    for (std::size_t jobs : {1u, 4u, 8u}) {
      if (chunk == 16 && jobs == 1) continue;  // covered by the reference shape
      shapes.emplace_back(chunk, jobs);
    }
  }
  for (const auto& [chunk, jobs] : shapes) {
    const Artifacts run = run_packet(chunk, jobs);
    EXPECT_EQ(run.tests, reference.tests) << "chunk=" << chunk << " jobs=" << jobs;
    EXPECT_EQ(run.busy_windows, reference.busy_windows)
        << "chunk=" << chunk << " jobs=" << jobs;
    // Byte-identical JSON, not merely equivalent: outputs commit in chunk
    // order and the stores canonicalize, so neither the partition nor thread
    // scheduling can leak into any artifact.
    EXPECT_EQ(run.health, reference.health) << "chunk=" << chunk << " jobs=" << jobs;
    EXPECT_EQ(run.metrics, reference.metrics) << "chunk=" << chunk << " jobs=" << jobs;
    EXPECT_EQ(run.spans, reference.spans) << "chunk=" << chunk << " jobs=" << jobs;
  }
}

TEST(ChunkedFleet, PeakLiveChunksStayWithinTheRing) {
  // The stream frees each chunk once every health lane has folded it, so a
  // longer period means more chunks, never more of them alive at once: the
  // peak is the ring (or the chunk count, when smaller), at 1 and 4 days.
  const swift::ModelRegistry registry;
  for (const int days : {1, 4}) {
    for (const std::size_t jobs : {1u, 2u, 4u}) {
      FleetSimConfig cfg = base_config();
      cfg.days = days;
      cfg.tests_per_day = 20'000.0;
      cfg.chunk = 64;
      cfg.jobs = jobs;
      obs::health::HealthMonitor health;
      cfg.health = &health;
      const FleetSimResult result = simulate_fleet(population(), registry, cfg);
      const std::size_t chunks = (result.tests_simulated + cfg.chunk - 1) / cfg.chunk;
      ASSERT_GT(chunks, exec::stream_ring(jobs));
      EXPECT_LE(result.peak_live_chunks, exec::stream_ring(jobs))
          << "days=" << days << " jobs=" << jobs;
      EXPECT_EQ(result.peak_live_chunks, exec::stream_ring(jobs))
          << "days=" << days << " jobs=" << jobs;
    }
  }
  // Fewer chunks than the ring: all of them, at once.
  FleetSimConfig cfg = base_config();
  cfg.chunk = 256;
  cfg.jobs = 8;
  const FleetSimResult result = simulate_fleet(population(), registry, cfg);
  EXPECT_EQ(result.peak_live_chunks, (result.tests_simulated + 255) / 256);
}

}  // namespace
}  // namespace swiftest::deploy
