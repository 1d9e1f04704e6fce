// Host-time self-profiling and thread-safety of run_stream, the library's
// one thread pool. The suite name is in the TSan gate's filter
// (`--gtest_filter='RunStreamHostprof.*:...'` in ci.sh): it drives the pool
// with a live profiler under contention to prove the accounting adds up —
// pulls == runs + folds, no steals, busy + idle == wall — and that the
// recording stays race-free.
#include "exec/exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <vector>

#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"

namespace swiftest::deploy {
namespace {

using exec::run_stream;
using exec::StreamStages;

using obs::hostprof::HostProfiler;
using obs::hostprof::ProfData;
using obs::hostprof::TimelineData;

constexpr std::size_t kTasks = 8;
constexpr std::size_t kJobs = 4;

/// A task body with real (if tiny) host time, so busy windows are nonzero.
void spin_task(std::atomic<std::uint64_t>& sink) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(200);
  std::uint64_t x = 1;
  while (std::chrono::steady_clock::now() < until) x = x * 6364136223846793005ull + 1;
  sink.fetch_add(x | 1, std::memory_order_relaxed);
}

/// `items` items that each run `run`, commit nothing and fold `fold` on
/// every one of `lanes` lanes.
StreamStages stages(std::size_t items, const std::function<void(std::size_t)>& run,
                    std::size_t lanes = 0,
                    const std::function<void(std::size_t, std::size_t)>& fold = {}) {
  return {.draw = [items](std::size_t item) { return item < items; },
          .run = run,
          .commit = [](std::size_t) {},
          .lanes = lanes,
          .fold = fold};
}

/// The calling thread's timeline of a threaded stream: the pool region at
/// depth 0 with its waits nested inside, and no WorkerStats of its own.
void expect_main_timeline(const TimelineData& main_tl) {
  bool saw_pool = false;
  bool saw_join = false;
  for (const auto& iv : main_tl.intervals) {
    if (iv.phase == obs::hostprof::kPhasePool) {
      saw_pool = true;
      EXPECT_EQ(iv.depth, 0u);
    }
    if (iv.phase == obs::hostprof::kPhaseJoin) {
      saw_join = true;
      EXPECT_EQ(iv.depth, 1u);
    }
  }
  EXPECT_TRUE(saw_pool);
  EXPECT_TRUE(saw_join);
  EXPECT_FALSE(main_tl.worker.valid) << "pool path: workers own the stats";
}

/// What a worker timeline's intervals add up to.
struct WorkerIntervals {
  std::uint64_t runs = 0;
  std::uint64_t folds = 0;
  std::uint64_t busy_ns = 0;
};

/// Checks one worker's stats against its intervals: busy + idle == wall
/// exactly, every run and fold was one pull, nothing was stolen. Adds each
/// run's item to `item_runs` and each fold's lane to `lane_folds`.
WorkerIntervals expect_worker_accounting(const TimelineData& tl,
                                         std::vector<int>& item_runs,
                                         std::vector<std::size_t>& lane_folds) {
  WorkerIntervals seen;
  EXPECT_TRUE(tl.worker.valid) << "worker tid " << tl.tid;
  EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
  for (const auto& iv : tl.intervals) {
    if (iv.phase == obs::hostprof::kPhaseChunk) {
      EXPECT_LT(iv.arg, item_runs.size());
      if (iv.arg < item_runs.size()) ++item_runs[iv.arg];
      ++seen.runs;
    } else {
      EXPECT_EQ(iv.phase, obs::hostprof::kPhaseFold);
      EXPECT_LT(iv.arg, lane_folds.size()) << "lane.fold's arg is the lane";
      if (iv.arg < lane_folds.size()) ++lane_folds[iv.arg];
      ++seen.folds;
    }
    seen.busy_ns += iv.dur_ns;
  }
  EXPECT_EQ(seen.runs, tl.worker.chunks);
  EXPECT_EQ(tl.worker.pulls, seen.runs + seen.folds) << "one pull per run or fold";
  EXPECT_EQ(tl.worker.steals, 0u);
  EXPECT_LE(seen.busy_ns, tl.worker.busy_ns);
  return seen;
}

TEST(RunStreamHostprof, PoolAccountingAddsUp) {
  HostProfiler prof;
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::atomic<int>> ran(kTasks);
  run_stream(kJobs,
             stages(kTasks,
                    [&](std::size_t task) {
                      ran[task].fetch_add(1);
                      spin_task(sink);
                    }),
             &prof);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1) << "task " << t;
  }

  prof.set_run_shape(kTasks, kJobs);
  prof.finish();
  const ProfData data = prof.snapshot();
  ASSERT_EQ(data.timelines.size(), 1 + kJobs);
  expect_main_timeline(data.timelines[0]);

  // Workers: the chunk.run intervals jointly cover every task exactly once,
  // no matter which worker ran what.
  std::uint64_t total_chunks = 0;
  std::vector<int> task_seen(kTasks, 0);
  std::vector<std::size_t> no_lanes;
  for (std::size_t w = 1; w < data.timelines.size(); ++w) {
    const WorkerIntervals seen =
        expect_worker_accounting(data.timelines[w], task_seen, no_lanes);
    EXPECT_EQ(seen.folds, 0u);
    total_chunks += seen.runs;
  }
  EXPECT_EQ(total_chunks, kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(task_seen[t], 1) << "task " << t;
  }

  // The analyzer accepts a real pool profile end to end.
  const auto report = obs::hostprof::analyze_prof(data);
  EXPECT_EQ(report.workers, kJobs);
  EXPECT_EQ(report.slowest_chunks.size(), kTasks);
  EXPECT_GT(report.busy_ns, 0u);
  EXPECT_GT(report.pool_wall_ns, 0u);
}

TEST(RunStreamHostprof, LaneFoldsAreCountedPerLane) {
  constexpr std::size_t kLanes = 3;
  HostProfiler prof;
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::atomic<int>> folded(kTasks * kLanes);
  run_stream(kJobs,
             stages(
                 kTasks, [&](std::size_t) { spin_task(sink); }, kLanes,
                 [&](std::size_t lane, std::size_t item) {
                   folded[item * kLanes + lane].fetch_add(1);
                   spin_task(sink);
                 }),
             &prof);
  for (std::size_t i = 0; i < folded.size(); ++i) {
    EXPECT_EQ(folded[i].load(), 1) << "item " << i / kLanes << " lane " << i % kLanes;
  }

  prof.finish();
  const ProfData data = prof.snapshot();
  ASSERT_EQ(data.timelines.size(), 1 + kJobs);
  expect_main_timeline(data.timelines[0]);

  // Every lane folded every item once, wherever its folds ran.
  std::vector<int> task_seen(kTasks, 0);
  std::vector<std::size_t> lane_folds(kLanes, 0);
  std::uint64_t total_chunks = 0;
  std::uint64_t total_folds = 0;
  for (std::size_t w = 1; w < data.timelines.size(); ++w) {
    const WorkerIntervals seen =
        expect_worker_accounting(data.timelines[w], task_seen, lane_folds);
    total_chunks += seen.runs;
    total_folds += seen.folds;
  }
  EXPECT_EQ(total_chunks, kTasks);
  EXPECT_EQ(total_folds, kTasks * kLanes);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(lane_folds[lane], kTasks) << "lane " << lane;
  }
}

TEST(RunStreamHostprof, InlinePathRecordsOnMainTimeline) {
  constexpr std::size_t kLanes = 2;
  HostProfiler prof;
  std::atomic<std::uint64_t> sink{0};
  run_stream(1,
             stages(
                 3, [&](std::size_t) { spin_task(sink); }, kLanes,
                 [](std::size_t, std::size_t) {}),
             &prof);
  prof.finish();
  const ProfData data = prof.snapshot();
  ASSERT_EQ(data.timelines.size(), 1u) << "jobs<=1 must not spawn timelines";
  const TimelineData& tl = data.timelines[0];
  ASSERT_TRUE(tl.worker.valid);
  EXPECT_EQ(tl.worker.chunks, 3u);
  EXPECT_EQ(tl.worker.pulls, 3u * (1 + kLanes));
  EXPECT_EQ(tl.worker.steals, 0u);
  EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
  std::size_t chunk_runs = 0;
  std::vector<std::size_t> lane_folds(kLanes, 0);
  for (const auto& iv : tl.intervals) {
    if (iv.phase == obs::hostprof::kPhaseChunk) ++chunk_runs;
    if (iv.phase == obs::hostprof::kPhaseFold) {
      ASSERT_LT(iv.arg, kLanes);
      ++lane_folds[iv.arg];
    }
  }
  EXPECT_EQ(chunk_runs, 3u);
  EXPECT_EQ(lane_folds, std::vector<std::size_t>(kLanes, 3u));
}

TEST(RunStreamHostprof, NullProfilerStillRunsEveryTask) {
  std::vector<std::atomic<int>> ran(kTasks);
  run_stream(kJobs, stages(kTasks, [&](std::size_t task) { ran[task].fetch_add(1); }),
             nullptr);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1) << "task " << t;
  }
}

TEST(RunStreamHostprof, ExceptionStillJoinsAndRethrows) {
  HostProfiler prof;
  EXPECT_THROW(run_stream(kJobs,
                          stages(kTasks,
                                 [&](std::size_t task) {
                                   if (task == 3) throw std::runtime_error("task 3 boom");
                                 }),
                          &prof),
               std::runtime_error);
  // Workers joined: their stats are consistent even on the error path.
  const ProfData data = prof.snapshot();
  for (std::size_t w = 1; w < data.timelines.size(); ++w) {
    const TimelineData& tl = data.timelines[w];
    if (!tl.worker.valid) continue;
    EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
    EXPECT_EQ(tl.worker.steals, 0u);
  }
}

}  // namespace
}  // namespace swiftest::deploy
