#include "exec/exec.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"

namespace swiftest::exec {

namespace {

/// One pool thread's WorkerStats: time() adds a task's host time to busy,
/// finish() stamps them with wall = busy + idle. With a null timeline it
/// reads no clock and stamps nothing.
class TaskClock {
 public:
  explicit TaskClock(obs::hostprof::Timeline* tl)
      : tl_(tl), start_ns_(tl != nullptr ? tl->now_ns() : 0) {}

  /// Runs `fn` inside a `phase` interval (arg = `arg`).
  template <typename Fn>
  void time(const char* phase, std::uint64_t arg, Fn&& fn) {
    const std::uint64_t t0 = tl_ != nullptr ? tl_->now_ns() : 0;
    {
      const obs::hostprof::HostScope scope(tl_, phase, arg);
      fn();
    }
    if (tl_ != nullptr) stats_.busy_ns += tl_->now_ns() - t0;
  }
  obs::hostprof::WorkerStats& stats() noexcept { return stats_; }

  void finish() {
    if (tl_ == nullptr) return;
    stats_.valid = true;
    stats_.wall_ns = tl_->now_ns() - start_ns_;
    stats_.idle_ns = stats_.wall_ns > stats_.busy_ns ? stats_.wall_ns - stats_.busy_ns : 0;
    tl_->set_worker_stats(stats_);
  }

 private:
  obs::hostprof::Timeline* tl_;
  std::uint64_t start_ns_;
  obs::hostprof::WorkerStats stats_;
};


std::size_t run_stream_inline(const StreamStages& stages, obs::hostprof::Timeline* tl) {
  TaskClock clock(tl);
  std::size_t items = 0;
  for (; stages.draw(items); ++items) {
    clock.time(obs::hostprof::kPhaseChunk, items, [&] { stages.run(items); });
    ++clock.stats().chunks;
    stages.commit(items);
    for (std::size_t lane = 0; lane < stages.lanes; ++lane) {
      clock.time(obs::hostprof::kPhaseFold, lane, [&] { stages.fold(lane, items); });
    }
    clock.stats().pulls += 1 + stages.lanes;
  }
  clock.finish();
  return std::min<std::size_t>(items, 1);
}

/// The shared state of one threaded run_stream. Every field is guarded by
/// `mutex`; the stage callbacks run unlocked.
class StreamState {
 public:
  StreamState(const StreamStages& stages, std::size_t ring)
      : stages_(stages), ring_(ring), ran_(ring, 0), lane_next_(stages.lanes, 0),
        lane_busy_(stages.lanes, 0) {}
  StreamState(const StreamState&) = delete;
  StreamState& operator=(const StreamState&) = delete;

  /// Runs the stream on the calling thread and at most `jobs` workers,
  /// joins them, and rethrows the first error. Returns the peak of live
  /// items.
  std::size_t drive(std::size_t jobs, obs::hostprof::HostProfiler* prof) {
    obs::hostprof::Timeline* main_tl = prof != nullptr ? &prof->main() : nullptr;
    std::vector<std::thread> workers;
    std::size_t peak = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    try {
      drive_locked(lock, jobs, prof, workers, peak);
    } catch (...) {
      // Only code that runs under the lock gets here (stage exceptions are
      // caught in unlocked()): a failed spawn or allocation. The workers
      // already running must still be joined.
      fail(std::current_exception());
    }
    stopped_ = true;
    work_ready_.notify_all();
    lock.unlock();
    {
      const obs::hostprof::HostScope join(main_tl, obs::hostprof::kPhaseJoin);
      for (std::thread& t : workers) t.join();
    }
    if (error_) std::rethrow_exception(error_);
    return peak;
  }

 private:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  /// The calling thread's loop, entered and left under `lock`: fill the
  /// ring, then commit the next item whenever it ran — lanes wait on
  /// commits — else draw while a slot is free, else wait. Spawns a worker
  /// per item drawn until there are `jobs`.
  void drive_locked(std::unique_lock<std::mutex>& lock, std::size_t jobs,
                    obs::hostprof::HostProfiler* prof, std::vector<std::thread>& workers,
                    std::size_t& peak) {
    obs::hostprof::Timeline* main_tl = prof != nullptr ? &prof->main() : nullptr;
    while (!failed_) {
      const bool commit_ready = committed_ < drawn_ && ran_[committed_ % ring_] != 0;
      if (!ended_ && drawn_ < released() + ring_ && (drawn_ < ring_ || !commit_ready)) {
        const std::size_t item = drawn_;
        bool drew = false;
        if (!unlocked(lock, [&] { drew = stages_.draw(item); })) break;
        if (!drew) {
          ended_ = true;
          continue;
        }
        ++drawn_;
        runnable_.push_back(item);
        peak = std::max(peak, drawn_ - released());
        if (workers.size() < jobs) {
          // Timelines exist before their thread: the spawn is the edge
          // that lets the worker record lock-free.
          obs::hostprof::Timeline* tl = nullptr;
          if (prof != nullptr) {
            prof->reserve_workers(workers.size() + 1);
            tl = &prof->worker(workers.size());
          }
          workers.emplace_back([this, tl] { work(tl); });
        } else {
          work_ready_.notify_one();
        }
        continue;
      }
      if (commit_ready) {
        const std::size_t item = committed_;
        ran_[item % ring_] = 0;
        if (!unlocked(lock, [&] { stages_.commit(item); })) break;
        ++committed_;
        if (stages_.lanes > 0) work_ready_.notify_all();
        continue;
      }
      if (ended_ && released() == drawn_) break;
      const obs::hostprof::HostScope wait(main_tl, obs::hostprof::kPhaseJoin);
      main_waiting_ = true;
      main_ready_.wait(lock);
      main_waiting_ = false;
    }
  }

  /// Items before this one have passed every lane; their slots are free.
  [[nodiscard]] std::size_t released() const {
    if (lane_next_.empty()) return committed_;
    return *std::min_element(lane_next_.begin(), lane_next_.end());
  }

  /// Runs `fn` with `lock` released. On an exception records it (the first
  /// one wins), stops the stream and returns false.
  template <typename Fn>
  bool unlocked(std::unique_lock<std::mutex>& lock, Fn&& fn) {
    std::exception_ptr error;
    lock.unlock();
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (!error) return true;
    fail(error);
    return false;
  }

  /// Records `error` (the first one wins) and stops the stream. Under the
  /// lock.
  void fail(std::exception_ptr error) {
    if (!error_) error_ = std::move(error);
    failed_ = true;
    work_ready_.notify_all();
    main_ready_.notify_one();
  }

  [[nodiscard]] bool lane_ready(std::size_t lane) const {
    return lane_busy_[lane] == 0 && lane_next_[lane] < committed_;
  }

  /// A lane with a committed item to fold and no worker on it: `last` —
  /// the lane this worker folded before, whose buffers its cache still
  /// holds — when ready, else the one whose next fold is the oldest; kNone
  /// when there is none.
  [[nodiscard]] std::size_t ready_lane(std::size_t last) const {
    if (last != kNone && lane_ready(last)) return last;
    std::size_t best = kNone;
    for (std::size_t lane = 0; lane < lane_next_.size(); ++lane) {
      if (!lane_ready(lane)) continue;
      if (best == kNone || lane_next_[lane] < lane_next_[best]) best = lane;
    }
    return best;
  }

  /// Wakes the waiting calling thread once it has a batch of work: a
  /// commit some lane is idle for, room to draw half a ring, or — once the
  /// draw has ended — any commit and the end. Every wake-up costs a thread
  /// hand-off, so a lane with work queued never wakes it per item; a busy
  /// lane re-checks when its fold returns.
  void wake_main() {
    if (!main_waiting_) return;
    const bool commit_ready = committed_ < drawn_ && ran_[committed_ % ring_] != 0;
    const bool lane_idle =
        lane_next_.empty() ||
        *std::max_element(lane_next_.begin(), lane_next_.end()) >= committed_;
    const bool wake = ended_ ? commit_ready || released() == drawn_
                             : (commit_ready && lane_idle) ||
                                   released() + ring_ - drawn_ >= (ring_ + 1) / 2;
    if (wake) main_ready_.notify_one();
  }

  void work(obs::hostprof::Timeline* tl) {
    TaskClock clock(tl);
    std::size_t last_lane = kNone;
    std::unique_lock<std::mutex> lock(mutex_);
    while (!failed_ && !stopped_) {
      if (!runnable_.empty()) {
        const std::size_t item = runnable_.front();
        runnable_.pop_front();
        ++clock.stats().pulls;
        if (!unlocked(lock, [&] {
              clock.time(obs::hostprof::kPhaseChunk, item, [&] { stages_.run(item); });
            })) {
          break;
        }
        ++clock.stats().chunks;
        ran_[item % ring_] = 1;
        if (item == committed_) wake_main();
        continue;
      }
      const std::size_t lane = ready_lane(last_lane);
      if (lane != kNone) {
        last_lane = lane;
        const std::size_t item = lane_next_[lane];
        lane_busy_[lane] = 1;
        ++clock.stats().pulls;
        const bool ok = unlocked(lock, [&] {
          clock.time(obs::hostprof::kPhaseFold, lane, [&] { stages_.fold(lane, item); });
        });
        lane_busy_[lane] = 0;
        if (!ok) break;
        ++lane_next_[lane];
        wake_main();
        continue;
      }
      work_ready_.wait(lock);
    }
    lock.unlock();
    clock.finish();
  }

  const StreamStages& stages_;
  const std::size_t ring_;
  std::mutex mutex_;
  std::condition_variable main_ready_;  // the calling thread waits here
  std::condition_variable work_ready_;  // idle workers wait here
  std::deque<std::size_t> runnable_;    // drawn, not yet taken by a worker
  std::vector<char> ran_;               // [slot] run finished, not committed
  std::vector<std::size_t> lane_next_;  // [lane] next item to fold
  std::vector<char> lane_busy_;         // [lane] a worker is folding it
  std::size_t drawn_ = 0;
  std::size_t committed_ = 0;
  bool ended_ = false;    // draw returned false
  bool failed_ = false;   // a stage threw
  bool stopped_ = false;  // the calling thread is joining the workers
  bool main_waiting_ = false;
  std::exception_ptr error_;
};

}  // namespace

std::size_t resolve_jobs(std::size_t jobs) noexcept {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t run_stream(std::size_t jobs, const StreamStages& stages,
                       obs::hostprof::HostProfiler* prof) {
  obs::hostprof::Timeline* main_tl = prof != nullptr ? &prof->main() : nullptr;
  const obs::hostprof::HostScope pool_scope(main_tl, obs::hostprof::kPhasePool);
  if (jobs <= 1) return run_stream_inline(stages, main_tl);
  StreamState state(stages, stream_ring(jobs));
  return state.drive(jobs, prof);
}

void run_tasks(std::size_t task_count, std::size_t jobs,
               const std::function<void(std::size_t)>& fn) {
  run_stream(std::min(jobs, task_count),
             {.draw = [task_count](std::size_t task) { return task < task_count; },
              .run = fn,
              .commit = [](std::size_t) {}});
}

}  // namespace swiftest::exec
