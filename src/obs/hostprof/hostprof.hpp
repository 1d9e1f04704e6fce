// Thread-aware host-time profiler: the simulator's one wall-clock profiler.
//
// It answers how much host time each phase cost, *which thread* spent it,
// *when*, and how much of the run was serial. Every thread of the chunked
// fleet runtime records nested phase *intervals* into its own Timeline — the calling thread's workload.gen / merge.* / export
// phases, each pool worker's per-chunk replay — plus per-worker busy/idle
// wait accounting around deploy::run_tasks' work-stealing pool. After the
// pool joins, HostProfiler::snapshot() folds the timelines into one ProfData
// that renders as PROF JSONL (obs/hostprof/report.hpp), as a Chrome
// trace_event timeline with one track per worker, and as the Amdahl
// attribution report behind `swiftest-cli profile report`.
//
// Threading contract (the reason the record path needs no locks):
//   * Each Timeline is owned by exactly one thread while recording. The
//     calling thread creates worker timelines up front (reserve_workers)
//     BEFORE spawning the pool; thread creation and join provide the
//     happens-before edges, so recording is plain stores into thread-private
//     memory — no atomics, no mutex, TSan-clean.
//   * snapshot()/readers run strictly after every recording thread joined.
//
// Like the Tracer, interval storage is ring-bounded (oldest intervals are
// overwritten and counted in dropped()), while the per-phase aggregates
// (count/total/max) stay exact regardless of drops. All timestamps are
// steady_clock nanoseconds relative to the profiler's construction — host
// time, never simulated time, and therefore NEVER part of deterministic
// artifacts (DESIGN.md §7, §13).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace swiftest::obs::hostprof {

class HostProfiler;

/// One recorded phase interval on one thread's timeline. `phase` must point
/// at static storage (a string literal), mirroring the Tracer's contract.
struct Interval {
  const char* phase = "";
  std::uint64_t t0_ns = 0;   // start, relative to the profiler's epoch
  std::uint64_t dur_ns = 0;  // closed duration
  std::uint32_t depth = 0;   // nesting depth at open (0 = top level)
  std::uint64_t arg = 0;     // correlator: shard index, etc.
};

/// Exact per-phase aggregate, immune to interval-ring drops.
struct PhaseAgg {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
};

/// Pool wait accounting for one worker thread (or the calling thread on the
/// inline jobs<=1 path): busy is the sum of chunk-execution time, idle is
/// everything else between the worker's first and last breath (deque takes,
/// steal sweeps, termination checks), so busy + idle == wall exactly.
struct WorkerStats {
  bool valid = false;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t pulls = 0;   // acquisition rounds (take + steal sweeps, incl. misses)
  std::uint64_t steals = 0;  // chunks taken from another worker's deque
  std::uint64_t chunks = 0;  // chunks this worker executed
};

/// One thread's interval store. Single-owner while recording (see the
/// threading contract above); use HostScope rather than open/close directly.
class Timeline {
 public:
  Timeline(const HostProfiler* owner, std::uint32_t tid, std::size_t capacity)
      : owner_(owner), tid_(tid), capacity_(capacity) {}

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }

  /// Host nanoseconds since the owning profiler's epoch.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

  /// Opens a nested scope: returns the depth the matching close must restore.
  std::uint32_t open() noexcept { return depth_++; }

  /// Closes a scope opened at `depth`: records the interval (ring-bounded)
  /// and folds it into the exact per-phase aggregate.
  void close(const char* phase, std::uint64_t t0_ns, std::uint32_t depth,
             std::uint64_t arg);

  void set_worker_stats(const WorkerStats& stats) noexcept { worker_ = stats; }

  // -- read side: only valid after every recording thread joined -----------
  [[nodiscard]] const WorkerStats& worker_stats() const noexcept { return worker_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t interval_count() const noexcept { return size_; }
  /// Retained intervals, oldest first.
  [[nodiscard]] std::vector<Interval> intervals() const;
  [[nodiscard]] const std::vector<std::pair<const char*, PhaseAgg>>& phase_aggs()
      const noexcept {
    return aggs_;
  }

  static constexpr std::size_t kDefaultCapacity = 1u << 16;

 private:
  const HostProfiler* owner_;
  std::uint32_t tid_;
  std::uint32_t depth_ = 0;
  // Interval ring, allocated lazily on the first close (a reserved worker
  // timeline that never runs a shard costs nothing).
  std::vector<Interval> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  // Exact aggregates. Keys are string literals: pointer equality is the fast
  // path, strcmp the fallback, linear scan over the handful of phase names.
  std::vector<std::pair<const char*, PhaseAgg>> aggs_;
  WorkerStats worker_;
};

/// RAII nested host-time scope. A null timeline makes it a no-op with no
/// clock read, so an unprofiled run pays nothing.
class HostScope {
 public:
  explicit HostScope(Timeline* timeline, const char* phase,
                     std::uint64_t arg = 0) noexcept
      : timeline_(timeline), phase_(phase), arg_(arg) {
    if (timeline_ != nullptr) {
      depth_ = timeline_->open();
      t0_ns_ = timeline_->now_ns();
    }
  }
  ~HostScope() {
    if (timeline_ != nullptr) timeline_->close(phase_, t0_ns_, depth_, arg_);
  }

  HostScope(const HostScope&) = delete;
  HostScope& operator=(const HostScope&) = delete;

 private:
  Timeline* timeline_;
  const char* phase_;
  std::uint64_t arg_;
  std::uint64_t t0_ns_ = 0;
  std::uint32_t depth_ = 0;
};

/// Serializable snapshot of one timeline (phase names copied out of static
/// storage so loaded-from-file data owns its strings).
struct TimelineData {
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
  WorkerStats worker;
  std::vector<PhaseAgg> phases;
  struct IntervalData {
    std::string phase;
    std::uint64_t t0_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint32_t depth = 0;
    std::uint64_t arg = 0;
  };
  std::vector<IntervalData> intervals;
};

/// Everything `swiftest-cli profile report` consumes: the run shape, total
/// wall, and every thread's timeline. Produced by snapshot(), round-tripped
/// through PROF JSONL (report.hpp).
struct ProfData {
  std::size_t chunks = 0;
  std::size_t jobs = 0;
  std::uint64_t wall_ns = 0;
  std::vector<TimelineData> timelines;  // [0] is the calling thread (tid 0)
};

/// The per-run registry of timelines. Construct on the thread that will do
/// the serial work (tid 0 = main()); call reserve_workers before spawning a
/// pool, finish() after the last phase, snapshot() to export.
class HostProfiler {
 public:
  explicit HostProfiler(std::size_t capacity_per_timeline = Timeline::kDefaultCapacity);

  HostProfiler(const HostProfiler&) = delete;
  HostProfiler& operator=(const HostProfiler&) = delete;

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// The calling thread's timeline (tid 0).
  [[nodiscard]] Timeline& main() noexcept { return *timelines_[0]; }

  /// Ensures worker timelines (tids 1..n) exist. MUST be called from the
  /// owning thread before the pool spawns — workers never allocate or lock.
  void reserve_workers(std::size_t n);

  /// Worker `index`'s timeline (tid index + 1). reserve_workers(index + 1)
  /// must have happened.
  [[nodiscard]] Timeline& worker(std::size_t index) noexcept {
    return *timelines_[index + 1];
  }

  void set_run_shape(std::size_t chunks, std::size_t jobs) noexcept {
    chunks_ = chunks;
    jobs_ = jobs;
  }

  /// Stamps the run's total wall time. Call once, after the last phase.
  void finish() noexcept { wall_ns_ = now_ns(); }

  /// Folds every timeline into a serializable ProfData. Only call after all
  /// recording threads joined. wall_ns falls back to "now" if finish() was
  /// never called.
  [[nodiscard]] ProfData snapshot() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  std::size_t chunks_ = 0;
  std::size_t jobs_ = 0;
  std::uint64_t wall_ns_ = 0;
  std::vector<std::unique_ptr<Timeline>> timelines_;
};

}  // namespace swiftest::obs::hostprof
