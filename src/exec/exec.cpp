#include "exec/exec.hpp"

#include <deque>
#include <exception>
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
  using obs::hostprof::WorkerStats;

  if (task_count == 0) return;
  if (jobs <= 1 || task_count == 1) {
    // Inline path: the calling thread is the (only) worker, so its stats
    // land on timeline 0 alongside the pool region itself.
    obs::hostprof::Timeline* main_tl = prof != nullptr ? &prof->main() : nullptr;
    const HostScope pool_scope(main_tl, obs::hostprof::kPhasePool);
    WorkerStats stats;
    const std::uint64_t t_start = main_tl != nullptr ? main_tl->now_ns() : 0;
    for (std::size_t task = 0; task < task_count; ++task) {
      const std::uint64_t t0 = main_tl != nullptr ? main_tl->now_ns() : 0;
      {
        const HostScope task_scope(main_tl, obs::hostprof::kPhaseChunk, task);
        fn(task);
      }
      if (main_tl != nullptr) {
        stats.busy_ns += main_tl->now_ns() - t0;
        ++stats.chunks;
        ++stats.pulls;
      }
    }
    if (main_tl != nullptr) {
      stats.valid = true;
      stats.wall_ns = main_tl->now_ns() - t_start;
      stats.idle_ns = stats.wall_ns > stats.busy_ns ? stats.wall_ns - stats.busy_ns : 0;
      main_tl->set_worker_stats(stats);
    }
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
    obs::hostprof::Timeline* tl = prof != nullptr ? &prof->worker(index) : nullptr;
    WorkerStats stats;
    const std::uint64_t t_start = tl != nullptr ? tl->now_ns() : 0;
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
      if (tl != nullptr) ++stats.pulls;  // one acquisition round, hit or miss
      if (!got) {
        if (done.load(std::memory_order_acquire) >= task_count) break;
        // Not drained yet: someone holds unfinished work we could not steal
        // this round (or a CAS race lost). Yield and sweep again.
        std::this_thread::yield();
        continue;
      }
      const std::uint64_t t0 = tl != nullptr ? tl->now_ns() : 0;
      try {
        const HostScope task_scope(tl, obs::hostprof::kPhaseChunk, task);
        fn(task);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_release);
      if (tl != nullptr) {
        stats.busy_ns += tl->now_ns() - t0;
        ++stats.chunks;
        if (stolen) ++stats.steals;
      }
    }
    if (tl != nullptr) {
      stats.valid = true;
      stats.wall_ns = tl->now_ns() - t_start;
      stats.idle_ns = stats.wall_ns > stats.busy_ns ? stats.wall_ns - stats.busy_ns : 0;
      tl->set_worker_stats(stats);
    }
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

}  // namespace swiftest::exec
