// The test-keyed, work-stealing execution plane: the library's one thread
// pool. Three callers share it — fleet-day chunks (deploy/fleet_sim.cpp),
// the per-cell health-fold lanes, and the (sample set, k) model fits of
// stats::fit_gmm_bic.
//
// A fleet-day no longer partitions into N static shards replayed whole:
// the drawn workload decomposes into bounded chunks of *consecutive* draws,
// and run_tasks executes those chunks on a bounded pool of workers that
// steal from each other when their own block drains. Because every chunk is
// a pure function of (config, seed, chunk index) and the caller merges
// chunk outputs in canonical workload-index order, the schedule — which
// worker ran which chunk, in what order, after how many steals — can never
// leak into an artifact. Imbalance is structurally bounded at chunk
// granularity: an idle worker takes work from the busiest deque instead of
// waiting behind a statically-hashed partition.
//
// The deque is a fixed-capacity Chase-Lev: the owner pushes and takes at
// the bottom without contention; thieves race a single CAS on top. Memory
// orderings follow Le, Pop, Cohen & Nardelli, "Correct and Efficient
// Work-Stealing for Weak Memory Models" (PPoPP '13).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace swiftest::obs::hostprof {
class HostProfiler;
}

namespace swiftest::exec {

/// Fixed-capacity single-owner work-stealing deque over task indices.
///
/// Contract: exactly one thread (the owner) calls push()/take(); any number
/// of other threads call steal(). Tasks come back exactly once: either to
/// the owner (LIFO, bottom) or to one thief (FIFO, top). The buffer never
/// grows — push() refuses when capacity is reached, which keeps the pool
/// bounded and allocation-free after construction.
class WorkStealingDeque {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit WorkStealingDeque(std::size_t capacity);

  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only. False when the deque is full.
  bool push(std::size_t task) noexcept;

  /// Owner only. Pops the most recently pushed remaining task. False when
  /// the deque is empty (including losing the last-element race to a thief).
  bool take(std::size_t& task) noexcept;

  /// Thief side. Claims the oldest task. False when empty or when another
  /// thread won the race for the same slot.
  bool steal(std::size_t& task) noexcept;

  /// Approximate (racy) occupancy; exact once all threads are quiescent.
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  std::vector<std::atomic<std::size_t>> buffer_;
  std::size_t mask_;
  // top_ <= bottom_; both only ever increase except the owner's speculative
  // bottom decrement in take(). int64 so the transient bottom - 1 below a
  // concurrent top is well-defined.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

/// Worker threads to use for `jobs`: 0 means the hardware concurrency
/// (minimum 1); anything else is returned unchanged.
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs) noexcept;

/// Runs `fn(task)` exactly once for every task in [0, task_count) on a
/// bounded work-stealing pool of at most `jobs` threads.
///
/// Each worker owns a contiguous block of tasks (pushed so its own take()
/// order is ascending); when its deque drains it sweeps the other workers'
/// deques and steals their oldest task. jobs <= 1 (or a single task) runs
/// inline on the calling thread in ascending order. The set of executed
/// tasks is always exactly [0, task_count) — given task-local state, the
/// computed results are independent of scheduling, so callers that merge
/// outputs in task order produce artifacts independent of `jobs`. The first
/// exception thrown by any task is rethrown on the calling thread after
/// every worker has joined.
///
/// When `prof` is non-null the pool self-profiles (host time only):
///   * calling thread: one "exec.run" interval over the parallel region
///     with a nested "pool.join" interval over the joins;
///   * each worker timeline: one "chunk.run" interval per executed task
///     (arg = task index) plus WorkerStats — busy (inside fn), idle
///     (everything else; busy + idle == wall exactly), pulls (take/steal
///     acquisition rounds, including final misses), steals (tasks taken
///     from another worker's deque), and chunks (tasks executed). The
///     inline path records the same on the calling thread's timeline
///     (tid 0). Worker timelines are reserved before spawning.
void run_tasks(std::size_t task_count, std::size_t jobs,
               const std::function<void(std::size_t)>& fn,
               obs::hostprof::HostProfiler* prof = nullptr);

}  // namespace swiftest::exec
