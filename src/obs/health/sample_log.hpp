// Compact health logs for chunked runs, and their per-cell parallel fold.
//
// A chunked simulation cannot stream health observations into one
// HealthMonitor concurrently (the P² cells are order-sensitive and not
// mergeable), so each chunk writes its own SampleLog — fixed-size records of
// every test, egress sample and arrival, in call order — and the merge stage
// folds the logs into the real monitor after the chunks join (LogFold):
//
//   * arrival times concatenate in log order when that is already
//     time-ordered (chunks hold consecutive draws, so it normally is) and
//     otherwise merge stably by time, so the windowed test-rate sees one
//     globally time-ordered arrival stream, exactly as an unchunked run would;
//   * every (metric, dimension) cell is owned by exactly one fold lane, and a
//     lane walks every log in log order collecting only the values of the
//     cells it owns, per cell, then drains each cell's block of values in
//     one StreamingAggregate::observe_all. Each cell therefore sees exactly
//     the observation sequence a serial replay of the logs would feed it, so
//     the monitor state — and every byte rendered from it — is the same for
//     any lane count or block size, and lanes share no writes.
//
// Dimension keys are interned per log into small ids, so a test costs one
// 40-byte record: no strings and no per-test allocation.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/health/monitor.hpp"

namespace swiftest::obs::health {

// A log is bounded: at most `capacity` buffered samples (tests plus egress)
// and `capacity` buffered arrivals (kDefaultCapacity = 4M each, far above
// any tier-1 run but a hard ceiling for fleet-scale days). Overflow policy is
// drop-newest: the buffered prefix folds verbatim — exactly what an unbounded
// log would have folded first — and everything past the cap is counted in
// dropped() so the merge stage can surface the loss instead of OOMing.
class SampleLog {
 public:
  /// Log-local dimension id; kNoDim marks an empty slot.
  using DimId = std::uint32_t;
  static constexpr DimId kNoDim = 0xFFFFFFFFu;
  /// Dimension slots per test record.
  static constexpr std::size_t kMaxDims = 4;
  static constexpr std::size_t kDefaultCapacity = 1u << 22;

  /// One completed test (the fields of TestSample). `dims` holds log-local
  /// ids in slot order; kNoDim slots are skipped.
  struct TestEntry {
    double duration_s = 0.0;
    double data_mb = 0.0;
    double deviation = 0.0;
    std::array<DimId, kMaxDims> dims{kNoDim, kNoDim, kNoDim, kNoDim};
  };

  /// One egress-utilization window sample (%) for a server.
  struct EgressEntry {
    std::uint32_t server = 0;
    double util_pct = 0.0;
  };

  explicit SampleLog(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The log-local id of `dimension`, interned on first use. The empty key
  /// maps to kNoDim, so it is skipped like HealthMonitor skips it.
  DimId intern(std::string_view dimension);
  /// Interned keys, indexed by DimId.
  [[nodiscard]] const std::vector<std::string>& dimensions() const noexcept {
    return dims_;
  }

  /// Notes a test arrival at sim time `t_seconds`.
  void note_arrival(double t_seconds) {
    if (arrivals_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    arrivals_.push_back(t_seconds);
  }
  /// Records a completed test; every non-kNoDim id must come from intern().
  void record_test(const TestEntry& entry);
  /// Records one egress-utilization window sample (%) for `server`.
  void record_egress_utilization(std::uint32_t server, double util_pct);

  /// Arrival times in the order they were noted.
  [[nodiscard]] std::span<const double> arrival_times() const noexcept {
    return arrivals_;
  }
  [[nodiscard]] std::span<const TestEntry> tests() const noexcept { return tests_; }
  [[nodiscard]] std::span<const EgressEntry> egress() const noexcept { return egress_; }

  [[nodiscard]] std::size_t sample_count() const noexcept {
    return tests_.size() + egress_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Arrivals plus samples refused because the log was at capacity.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  /// True when another sample fits; counts the drop otherwise.
  bool admit_sample() {
    if (sample_count() >= capacity_) {
      ++dropped_;
      return false;
    }
    return true;
  }

  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<std::string> dims_;
  std::map<std::string, DimId, std::less<>> dim_ids_;  // key -> id
  std::vector<double> arrivals_;
  std::vector<TestEntry> tests_;
  std::vector<EgressEntry> egress_;
};

/// The per-cell fold of a sequence of logs into a monitor. Construction is
/// serial: it merges the arrivals, counts the tests, resolves every cell the
/// logs feed to its aggregate once and deals those cells to lanes, heaviest first onto the
/// lightest lane, so lanes carry near-equal observation counts. Which lane
/// owns a cell decides only which thread feeds it, never what it is fed.
class LogFold {
 public:
  /// The logs must outlive the fold; `lanes` is clamped to [1, cells fed].
  LogFold(std::span<const SampleLog* const> logs, HealthMonitor& monitor,
          std::size_t lanes);

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_; }

  /// Feeds the cells lane `lane` owns from every log, in log order, in
  /// blocks of kFoldBlock records per cell. Distinct lanes may run
  /// concurrently; nothing else may use the monitor until every lane has
  /// run.
  void run_lane(std::size_t lane) const;

  /// Records (tests or egress samples) a lane buffers per cell before
  /// draining; bounds a lane's buffers at a few hundred KiB.
  static constexpr std::size_t kFoldBlock = 4096;

 private:
  /// One log's ids resolved to fold-local cell indices (kNoCell where unused).
  struct LogCells {
    std::array<std::vector<std::uint32_t>, 3> by_dim;  // [test metric][DimId]
    std::vector<std::uint32_t> by_server;              // egress, [server]
  };
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  std::vector<const SampleLog*> logs_;
  std::vector<StreamingAggregate*> cells_;  // every cell the logs feed
  std::vector<std::uint32_t> owner_;        // [cell] -> lane
  std::array<std::uint32_t, 3> test_all_{kNoCell, kNoCell, kNoCell};  // under "all"
  std::uint32_t egress_all_ = kNoCell;
  std::vector<LogCells> log_cells_;  // parallel to logs_
  std::size_t lanes_ = 1;
};

}  // namespace swiftest::obs::health
