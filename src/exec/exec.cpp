#include "exec/exec.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "obs/hostprof/hostprof.hpp"
#include "obs/hostprof/report.hpp"

namespace swiftest::exec {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 2;
  while (cap < n) cap <<= 1;
  return cap;
}

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

}  // namespace

WorkStealingDeque::WorkStealingDeque(std::size_t capacity)
    : buffer_(round_up_pow2(capacity)), mask_(buffer_.size() - 1) {}

bool WorkStealingDeque::push(std::size_t task) noexcept {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  if (b - t >= static_cast<std::int64_t>(capacity())) return false;
  buffer_[static_cast<std::size_t>(b) & mask_].store(task,
                                                     std::memory_order_relaxed);
  // Publish the slot before the new bottom becomes visible to thieves.
  std::atomic_thread_fence(std::memory_order_release);
  bottom_.store(b + 1, std::memory_order_relaxed);
  return true;
}

bool WorkStealingDeque::take(std::size_t& task) noexcept {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  bottom_.store(b, std::memory_order_relaxed);
  // The store to bottom must be ordered before the read of top, or a thief
  // and the owner could both claim the same last element.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_relaxed);
  if (t <= b) {
    task = buffer_[static_cast<std::size_t>(b) & mask_].load(
        std::memory_order_relaxed);
    if (t == b) {
      // Last element: race thieves for it via the same CAS they use.
      const bool won = top_.compare_exchange_strong(
          t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }
  // Empty: restore bottom.
  bottom_.store(b + 1, std::memory_order_relaxed);
  return false;
}

bool WorkStealingDeque::steal(std::size_t& task) noexcept {
  std::int64_t t = top_.load(std::memory_order_acquire);
  // Order the read of top before the read of bottom (mirror of take()).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return false;
  task = buffer_[static_cast<std::size_t>(t) & mask_].load(
      std::memory_order_relaxed);
  // Claim the slot; failure means another thief (or the owner's last-element
  // take) got there first — the caller retries its sweep.
  return top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed);
}

std::size_t WorkStealingDeque::size() const noexcept {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_relaxed);
  return b > t ? static_cast<std::size_t>(b - t) : 0;
}

std::size_t resolve_jobs(std::size_t jobs) noexcept {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void run_tasks(std::size_t task_count, std::size_t jobs,
               const std::function<void(std::size_t)>& fn,
               obs::hostprof::HostProfiler* prof) {
  using obs::hostprof::HostScope;

  if (task_count == 0) return;
  if (jobs <= 1 || task_count == 1) {
    // Inline path: the calling thread is the (only) worker, so its stats
    // land on timeline 0 alongside the pool region itself.
    obs::hostprof::Timeline* main_tl = prof != nullptr ? &prof->main() : nullptr;
    const HostScope pool_scope(main_tl, obs::hostprof::kPhasePool);
    TaskClock clock(main_tl);
    for (std::size_t task = 0; task < task_count; ++task) {
      clock.time(obs::hostprof::kPhaseChunk, task, [&] { fn(task); });
      ++clock.stats().chunks;
      ++clock.stats().pulls;
    }
    clock.finish();
    return;
  }

  const std::size_t workers = jobs < task_count ? jobs : task_count;
  // Worker timelines must exist before the pool spawns: thread creation is
  // the happens-before edge that lets each worker record lock-free.
  if (prof != nullptr) prof->reserve_workers(workers);

  // Block distribution: worker i owns the contiguous tasks
  // [i * n / workers, (i+1) * n / workers), pushed in descending order so
  // its own take() pops them ascending. Thieves steal from the top, which
  // holds the block's *highest* remaining index — the owner and its thieves
  // approach each other, never overlap.
  // std::deque: elements hold atomics and must never relocate.
  std::deque<WorkStealingDeque> deques;
  for (std::size_t i = 0; i < workers; ++i) {
    const std::size_t lo = i * task_count / workers;
    const std::size_t hi = (i + 1) * task_count / workers;
    deques.emplace_back(hi > lo ? hi - lo : 1);
    for (std::size_t task = hi; task > lo; --task) {
      deques.back().push(task - 1);
    }
  }

  std::atomic<std::size_t> done{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&](std::size_t index) {
    TaskClock clock(prof != nullptr ? &prof->worker(index) : nullptr);
    for (;;) {
      std::size_t task = 0;
      bool got = deques[index].take(task);
      bool stolen = false;
      if (!got) {
        // Sweep the other deques starting just past our own; a failed CAS
        // (lost race) just moves the sweep along.
        for (std::size_t off = 1; off < workers && !got; ++off) {
          got = deques[(index + off) % workers].steal(task);
        }
        stolen = got;
      }
      ++clock.stats().pulls;  // one acquisition round, hit or miss
      if (!got) {
        if (done.load(std::memory_order_acquire) >= task_count) break;
        // Not drained yet: someone holds unfinished work we could not steal
        // this round (or a CAS race lost). Yield and sweep again.
        std::this_thread::yield();
        continue;
      }
      try {
        clock.time(obs::hostprof::kPhaseChunk, task, [&] { fn(task); });
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_release);
      ++clock.stats().chunks;
      if (stolen) ++clock.stats().steals;
    }
    clock.finish();
  };

  obs::hostprof::Timeline* main_tl = prof != nullptr ? &prof->main() : nullptr;
  const HostScope pool_scope(main_tl, obs::hostprof::kPhasePool);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) pool.emplace_back(worker, i);
  {
    const HostScope join_scope(main_tl, obs::hostprof::kPhaseJoin);
    for (std::thread& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

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

std::size_t run_stream(std::size_t jobs, const StreamStages& stages,
                       obs::hostprof::HostProfiler* prof) {
  obs::hostprof::Timeline* main_tl = prof != nullptr ? &prof->main() : nullptr;
  const obs::hostprof::HostScope pool_scope(main_tl, obs::hostprof::kPhasePool);
  if (jobs <= 1) return run_stream_inline(stages, main_tl);
  StreamState state(stages, stream_ring(jobs));
  return state.drive(jobs, prof);
}

}  // namespace swiftest::exec
