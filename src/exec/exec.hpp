// The test-keyed execution plane: the library's one thread pool.
// run_stream runs an open-ended, in-order stream of items through a bounded
// ring — fleet-day chunks (deploy/fleet_sim.cpp) are drawn, run, committed
// in order and folded by health lanes while later chunks are still being
// drawn. run_tasks is run_stream over a known task count with nothing to
// commit or fold — the (sample set, k) model fits of stats::fit_gmm_bic use
// it.
//
// No schedule leaks into an artifact: every task is a pure function of its
// inputs and index, its output lands in its own slot, and whatever is
// order-sensitive the caller does in index order — run_stream's commits and
// each lane's folds run in item order by construction.
#pragma once

#include <cstddef>
#include <functional>

namespace swiftest::obs::hostprof {
class HostProfiler;
}

namespace swiftest::exec {

/// Worker threads to use for `jobs`: 0 means the hardware concurrency
/// (minimum 1); anything else is returned unchanged.
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs) noexcept;

/// Runs `fn(task)` once for every task in [0, task_count) on at most
/// `jobs` threads: run_stream(min(jobs, task_count)) drawing the task
/// indices in order, with no commit and no lanes. jobs <= 1 (or a single
/// task) runs inline on the calling thread in ascending order. Given
/// task-local state the results are independent of scheduling, so callers
/// that merge outputs in task order produce artifacts independent of `jobs`.
///
/// The first exception a task throws stops the draw — no further task
/// starts — and is rethrown on the calling thread once the tasks already
/// running have returned and every worker has joined.
void run_tasks(std::size_t task_count, std::size_t jobs,
               const std::function<void(std::size_t)>& fn);

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
/// When `prof` is non-null the stream self-profiles (host time only): one
/// "exec.run" interval over the stream on the calling thread with a nested
/// "pool.join" per wait; per worker one "chunk.run" interval per run (arg =
/// item) and one "lane.fold" per fold (arg = lane), plus WorkerStats (busy
/// = inside run or fold; chunks = items run; pulls = tasks taken; steals =
/// 0). Inline, the calling thread's timeline records the same.
std::size_t run_stream(std::size_t jobs, const StreamStages& stages,
                       obs::hostprof::HostProfiler* prof = nullptr);

}  // namespace swiftest::exec
