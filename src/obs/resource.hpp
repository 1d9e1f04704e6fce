// Resource self-telemetry: what observing (and running) the fleet costs.
//
// A measurement platform must account for its own overhead (PAPERS.md,
// "Internet Speed Measurement: Current Challenges and Future
// Recommendations"); this monitor is that accounting for the reproduction.
// It collects two strictly separated kinds of signal:
//
//  * Deterministic counters — per-shard slab/transit-pool occupancy,
//    calendar-queue sweep stats and health drops. These are a pure function
//    of (workload, shards) and may land in the metrics registry and health
//    report.
//  * Host measurements — RSS / peak RSS (/proc/self/statm + VmHWM), per-shard
//    and total wall time. Like the host-time profiler (obs/hostprof/), these
//    NEVER enter deterministic artifacts; they surface only in the health
//    report's meta block (opt-in) and the live `--progress` stderr line.
//    Memory is read only when one of those reports it: VmHWM is already the
//    process's high-water mark, so nothing samples it while the run goes.
//    A chunk's wall time covers only its run stage (the worker's part): the
//    draw and the commit run serially on the calling thread and show up only
//    in the host-time profile's `workload.gen` and `merge` phases — on the
//    analytic backend, where the run stage is a few microseconds, that is
//    most of the run.
//
// The progress side (tests done, shards done) is thread-safe so a CLI
// progress thread can poll it while shard workers run; the telemetry side
// is recorded per shard under a mutex as each shard finishes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/health/report.hpp"
#include "obs/metrics.hpp"

namespace swiftest::obs {

/// A point-in-time memory reading for this process. Zeros when /proc is
/// unavailable (non-Linux hosts) — callers treat 0 as "unknown".
struct ResourceUsage {
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
};

/// Reads current and peak RSS from /proc/self/statm and /proc/self/status.
[[nodiscard]] ResourceUsage read_resource_usage();

/// Everything one finished shard reports. Wall time is host-dependent; all
/// other fields are deterministic for a fixed (workload, shards).
struct ShardTelemetry {
  std::size_t shard = 0;
  double wall_seconds = 0.0;  // host time of the run stage only; never in
                              // deterministic artifacts
  std::uint64_t tests = 0;
  std::uint64_t events_executed = 0;
  // Scheduler / pool occupancy (zero for the analytic backend).
  std::uint64_t slab_slots = 0;
  std::uint64_t callback_heap_fallbacks = 0;
  std::uint64_t payload_nodes = 0;
  std::uint64_t payload_heap_spills = 0;
  std::uint64_t transit_nodes = 0;
  std::uint64_t transit_peak_live = 0;
  std::uint64_t calendar_sweeps = 0;
  std::uint64_t calendar_rebases = 0;
  std::uint64_t calendar_far_pushes = 0;
  std::uint64_t health_dropped = 0;
};

class ResourceMonitor {
 public:
  /// Resets the monitor for a run. The run's shard count is not known up
  /// front: the draw counts each shard as it is drawn.
  void begin_run();

  // -- progress side (thread-safe, called from shard workers / poller) -----

  /// One more shard drawn.
  void note_shard_drawn() noexcept {
    shards_drawn_.fetch_add(1, std::memory_order_relaxed);
  }
  /// The draw has ended: shards_drawn() is the run's final shard count.
  void end_draw() noexcept { draw_ended_.store(true, std::memory_order_relaxed); }
  void add_tests(std::uint64_t n) noexcept {
    tests_done_.fetch_add(n, std::memory_order_relaxed);
  }
  void note_shard_done() noexcept {
    shards_done_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t tests_done() const noexcept {
    return tests_done_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shards_done() const noexcept {
    return shards_done_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shards_drawn() const noexcept {
    return shards_drawn_.load(std::memory_order_relaxed);
  }

  /// One-line run status for the --progress stderr line, e.g.
  /// "fleet: 10234 tests | shards 3/4 | rss 182.4 MB (peak 201.7)". While
  /// the draw runs the count is the shards drawn so far, marked "3/4+".
  [[nodiscard]] std::string progress_line() const;

  // -- telemetry side ------------------------------------------------------

  void record_shard(const ShardTelemetry& telemetry);

  /// Marks the run finished; records total wall seconds.
  void finish_run(double wall_seconds);

  [[nodiscard]] std::vector<ShardTelemetry> shard_telemetry() const;

  /// The process's peak RSS so far (the kernel's VmHWM, or the current RSS
  /// if that reads higher).
  [[nodiscard]] static double peak_rss_mb();

  /// Exports the deterministic counters (occupancy, drops,
  /// degradations — summed over shards) into `metrics`. Only-nonzero
  /// counters are written so runs that never drop stay artifact-compatible.
  void export_metrics(MetricsRegistry& metrics) const;

  /// Appends the full self-telemetry — deterministic counters AND host
  /// measurements (peak RSS, total wall, and the chunk walls' count, max
  /// and nearest-rank p95; a chunk wall is its run stage only) — as
  /// health-report meta entries. Opt-in: callers only attach this when the
  /// user asked for resource telemetry, since wall/RSS values differ
  /// between hosts.
  void append_report_meta(health::ReportMeta& meta) const;

 private:
  [[nodiscard]] ShardTelemetry totals_locked() const;

  std::atomic<std::uint64_t> tests_done_{0};
  std::atomic<std::uint64_t> shards_done_{0};
  std::atomic<std::uint64_t> shards_drawn_{0};
  std::atomic<bool> draw_ended_{false};
  double total_wall_seconds_ = 0.0;
  std::vector<ShardTelemetry> shards_;
  mutable std::mutex mutex_;
};

}  // namespace swiftest::obs
