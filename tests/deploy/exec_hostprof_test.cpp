// Host-time self-profiling and thread-safety of the run_tasks work-stealing
// pool. The suite names are the TSan gate's filter
// (`--gtest_filter='RunTasksHostprof.*:WorkStealingDequeTsan.*'` in ci.sh):
// they drive the pool and the raw deque under live contention to prove the
// lock-free paths are race-free and the accounting adds up.
#include "exec/exec.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/rng.hpp"
#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"

namespace swiftest::deploy {
namespace {

using exec::run_tasks;
using exec::WorkStealingDeque;

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

TEST(RunTasksHostprof, PoolAccountingAddsUp) {
  HostProfiler prof;
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::atomic<int>> ran(kTasks);
  run_tasks(
      kTasks, kJobs,
      [&](std::size_t task) {
        ran[task].fetch_add(1);
        spin_task(sink);
      },
      &prof);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1) << "task " << t;
  }

  prof.set_run_shape(kTasks, kJobs);
  prof.finish();
  const ProfData data = prof.snapshot();
  ASSERT_EQ(data.timelines.size(), 1 + kJobs);

  // Calling thread: the pool region and the nested join barrier.
  const TimelineData& main_tl = data.timelines[0];
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

  // Workers: stats valid, busy + idle == wall exactly, stealing bounded by
  // execution, every acquisition round counted (each worker's final miss
  // pulls too), and the chunk.run intervals jointly cover every task
  // exactly once — no matter who stole what from whom.
  std::uint64_t total_chunks = 0;
  std::uint64_t total_steals = 0;
  std::vector<int> task_seen(kTasks, 0);
  for (std::size_t w = 1; w < data.timelines.size(); ++w) {
    const TimelineData& tl = data.timelines[w];
    ASSERT_TRUE(tl.worker.valid) << "worker tid " << tl.tid;
    EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
    EXPECT_GE(tl.worker.pulls, tl.worker.chunks + 1) << "the final miss pulls too";
    EXPECT_LE(tl.worker.steals, tl.worker.chunks);
    total_chunks += tl.worker.chunks;
    total_steals += tl.worker.steals;
    std::uint64_t busy_from_intervals = 0;
    for (const auto& iv : tl.intervals) {
      ASSERT_EQ(iv.phase, obs::hostprof::kPhaseChunk);
      ASSERT_LT(iv.arg, kTasks);
      ++task_seen[iv.arg];
      busy_from_intervals += iv.dur_ns;
    }
    EXPECT_EQ(tl.intervals.size(), tl.worker.chunks);
    EXPECT_LE(busy_from_intervals, tl.worker.busy_ns);
  }
  EXPECT_EQ(total_chunks, kTasks);
  EXPECT_LE(total_steals, total_chunks);
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

TEST(RunTasksHostprof, InlinePathRecordsOnMainTimeline) {
  HostProfiler prof;
  std::atomic<std::uint64_t> sink{0};
  run_tasks(3, 1, [&](std::size_t) { spin_task(sink); }, &prof);
  prof.finish();
  const ProfData data = prof.snapshot();
  ASSERT_EQ(data.timelines.size(), 1u) << "jobs<=1 must not spawn timelines";
  const TimelineData& tl = data.timelines[0];
  ASSERT_TRUE(tl.worker.valid);
  EXPECT_EQ(tl.worker.chunks, 3u);
  EXPECT_EQ(tl.worker.steals, 0u);
  EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
  std::size_t chunk_runs = 0;
  for (const auto& iv : tl.intervals) {
    if (iv.phase == obs::hostprof::kPhaseChunk) ++chunk_runs;
  }
  EXPECT_EQ(chunk_runs, 3u);
}

TEST(RunTasksHostprof, NullProfilerStillRunsEveryTask) {
  std::vector<std::atomic<int>> ran(kTasks);
  run_tasks(kTasks, kJobs, [&](std::size_t task) { ran[task].fetch_add(1); },
            nullptr);
  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(ran[t].load(), 1) << "task " << t;
  }
}

TEST(RunTasksHostprof, ExceptionStillJoinsAndRethrows) {
  HostProfiler prof;
  EXPECT_THROW(
      run_tasks(
          kTasks, kJobs,
          [&](std::size_t task) {
            if (task == 3) throw std::runtime_error("task 3 boom");
          },
          &prof),
      std::runtime_error);
  // Workers joined: their stats are consistent even on the error path.
  const ProfData data = prof.snapshot();
  for (std::size_t w = 1; w < data.timelines.size(); ++w) {
    const TimelineData& tl = data.timelines[w];
    if (!tl.worker.valid) continue;
    EXPECT_EQ(tl.worker.busy_ns + tl.worker.idle_ns, tl.worker.wall_ns);
  }
}

// Randomized interleaving of one owner (push/take) against competing thieves
// on the raw deque. Run under TSan by the ci gate; the assertions are the
// exactly-once contract — every pushed task comes back exactly once, across
// owner and thieves combined — plus bounded occupancy.
TEST(WorkStealingDequeTsan, RandomizedOwnerAndThievesExactlyOnce) {
  constexpr std::size_t kRounds = 4;
  constexpr std::size_t kThieves = 3;
  constexpr std::size_t kTotal = 4096;
  for (std::size_t round = 0; round < kRounds; ++round) {
    WorkStealingDeque dq(kTotal);
    std::vector<std::atomic<int>> claimed(kTotal);
    std::atomic<bool> owner_done{false};
    std::atomic<std::size_t> taken{0};

    std::vector<std::thread> thieves;
    thieves.reserve(kThieves);
    for (std::size_t i = 0; i < kThieves; ++i) {
      thieves.emplace_back([&, i] {
        core::Rng rng(0xFEED + round * 31 + i);
        while (taken.load(std::memory_order_acquire) < kTotal) {
          std::size_t task = 0;
          if (dq.steal(task)) {
            claimed[task].fetch_add(1, std::memory_order_relaxed);
            taken.fetch_add(1, std::memory_order_release);
          } else if (owner_done.load(std::memory_order_acquire) &&
                     dq.size() == 0) {
            break;
          }
          if (rng.bernoulli(0.25)) std::this_thread::yield();
        }
      });
    }

    // The owner interleaves pushes and takes in a seeded random pattern so
    // the bottom end churns against the thieves' top-end CAS traffic.
    core::Rng rng(0xACE0 + round);
    std::size_t next = 0;
    while (next < kTotal || dq.size() > 0) {
      const bool can_push = next < kTotal;
      if (can_push && (dq.size() == 0 || rng.bernoulli(0.6))) {
        ASSERT_TRUE(dq.push(next));
        ++next;
      } else {
        std::size_t task = 0;
        if (dq.take(task)) {
          claimed[task].fetch_add(1, std::memory_order_relaxed);
          taken.fetch_add(1, std::memory_order_release);
        }
      }
      ASSERT_LE(dq.size(), kTotal);
    }
    owner_done.store(true, std::memory_order_release);
    for (std::thread& t : thieves) t.join();

    EXPECT_EQ(taken.load(), kTotal) << "round " << round;
    for (std::size_t t = 0; t < kTotal; ++t) {
      ASSERT_EQ(claimed[t].load(), 1) << "task " << t << " round " << round;
    }
  }
}

}  // namespace
}  // namespace swiftest::deploy
