// The test-keyed execution plane: the library's one thread pool, in two
// shapes. run_tasks runs a known task count on work-stealing workers — the
// (sample set, k) model fits of stats::fit_gmm_bic use it. run_stream runs
// an open-ended, in-order stream of items through a bounded ring —
// fleet-day chunks (deploy/fleet_sim.cpp) are drawn, run, committed in
// order and folded by health lanes while later chunks are still being
// drawn.
//
// Neither shape lets the schedule leak into an artifact: every task is a
// pure function of its inputs and index, its output lands in its own slot,
// and whatever is order-sensitive the caller does in index order —
// run_stream's commits and each lane's folds run in item order by
// construction. run_tasks' workers steal from each other when their own
// block drains, so imbalance is bounded at task granularity.
//
// run_tasks' deque is a fixed-capacity Chase-Lev: the owner pushes and takes at
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

/// The stages of one ordered stream (run_stream). Item `i` lives in ring
/// slot `i % stream_ring(jobs)` from draw(i) until every lane has folded it,
/// so a caller can keep per-item state in that many slots.
struct StreamStages {
  /// Calling thread, in item order: prepares item `i` in its slot. False
  /// when there is no item `i`; the stream then ends after the items drawn.
  std::function<bool(std::size_t item)> draw;
  /// Any worker, once per item; items run concurrently with each other and
  /// with every other stage.
  std::function<void(std::size_t item)> run;
  /// Calling thread, strictly in item order, each after run(item) returned.
  std::function<void(std::size_t item)> commit;
  /// fold(lane, item) runs for every lane in [0, lanes) after commit(item).
  /// One lane's folds run one at a time in item order; distinct lanes run
  /// concurrently. Zero lanes: an item is done once committed.
  std::size_t lanes = 0;
  std::function<void(std::size_t lane, std::size_t item)> fold;
};

/// Ring slots per job in run_stream: the draw may run this many items per
/// worker ahead of the slowest lane.
inline constexpr std::size_t kStreamRingPerJob = 8;

/// Items run_stream keeps live at once for `jobs`: 1 inline (jobs <= 1),
/// else kStreamRingPerJob * jobs.
[[nodiscard]] constexpr std::size_t stream_ring(std::size_t jobs) noexcept {
  return jobs <= 1 ? 1 : kStreamRingPerJob * jobs;
}

/// Runs draw -> run -> commit -> fold over an open-ended stream of items on
/// at most `jobs` workers (spawned as items are drawn, never more than the
/// items drawn), with at most stream_ring(jobs) items live at once. The
/// calling thread fills the ring, then commits each item in order once it
/// ran and draws into any free slot while no commit is ready; workers run
/// items (before anything else: a run unblocks the next commit) and fold
/// lanes.
/// Every wait blocks on a condition variable, none spins; a waiting calling
/// thread is woken for a batch of work (a commit an idle lane needs, or room
/// for half a ring), not per item. jobs <= 1 runs draw, run, commit and
/// every lane's fold for one item at a time, inline.
///
/// The stream promises progress as long as every stage call returns on its
/// own: a call must not wait for a commit or a fold.
///
/// The first exception any stage throws stops the draw and every further
/// task; the stream drains what is already running, joins every worker and
/// rethrows it on the calling thread. A draw waiting on a full ring is woken.
///
/// Returns the peak number of live items (drawn, not yet folded by every
/// lane): min(items, stream_ring(jobs)), because the draw fills the ring
/// first.
///
/// When `prof` is non-null the stream self-profiles like run_tasks: one
/// "exec.run" interval over the stream on the calling thread with a nested
/// "pool.join" per wait; per worker one "chunk.run" interval per run (arg =
/// item) and one "lane.fold" per fold (arg = lane), plus WorkerStats (busy
/// = inside run or fold; chunks = items run; pulls = tasks taken; steals =
/// 0). Inline, the calling thread's timeline records the same.
std::size_t run_stream(std::size_t jobs, const StreamStages& stages,
                       obs::hostprof::HostProfiler* prof = nullptr);

}  // namespace swiftest::exec
