// Compact health logs for chunked runs, and their per-cell streaming fold.
//
// A chunked simulation cannot stream health observations into one
// HealthMonitor concurrently (the P² cells are order-sensitive and not
// mergeable), so each chunk writes its own SampleLog — fixed-size records of
// every test, egress sample and arrival, in call order — and a LogFold feeds
// the logs, in log order, into the real monitor:
//
//   * commit() takes the logs one at a time on one thread: it notes their
//     arrivals (the windowed test-rate needs one globally time-ordered
//     stream), counts their tests, creates each cell on its first use and
//     deals it to a lane;
//   * every (metric, dimension) cell is owned by exactly one fold lane, and
//     a lane walks every committed log in commit order collecting only the
//     values of the cells it owns, per cell, then drains each cell's block of
//     values in one StreamingAggregate::observe_all. Each cell therefore sees
//     exactly the observation sequence a serial replay of the logs would
//     feed it, so the monitor state — and every byte rendered from it — is
//     the same for any lane count, block size or commit/fold interleaving,
//     and lanes share no writes.
//
// A fleet commits each chunk's log as soon as the chunk ran and folds it
// while later chunks still run (deploy/fleet_run.hpp).
//
// A test costs one 40-byte record: no strings and no per-test allocation.
// Dimension keys are ids into the run's one table of keys, shared by every
// log and the fold, so the fold maps each key to its cells once per run.
#pragma once

#include <array>
#include <cstdint>
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
  /// Dimension id (an index into dimensions()); kNoDim marks an empty slot.
  using DimId = std::uint32_t;
  static constexpr DimId kNoDim = 0xFFFFFFFFu;
  /// Dimension slots per test record.
  static constexpr std::size_t kMaxDims = 4;
  static constexpr std::size_t kDefaultCapacity = 1u << 22;

  /// One completed test (the fields of TestSample). `dims` holds dimension
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

  /// A log whose test ids index `dimensions`, the run's dimension table (it
  /// must outlive the log). A log without a table holds arrivals and egress
  /// samples only.
  explicit SampleLog(std::span<const std::string> dimensions = {},
                     std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity), dims_(dimensions) {}

  /// The dimension keys, indexed by DimId.
  [[nodiscard]] std::span<const std::string> dimensions() const noexcept { return dims_; }

  /// Notes a test arrival at sim time `t_seconds`.
  void note_arrival(double t_seconds) {
    if (arrivals_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    arrivals_.push_back(t_seconds);
  }
  /// Records a completed test; every non-kNoDim id must index dimensions().
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
  std::span<const std::string> dims_;
  std::vector<double> arrivals_;
  std::vector<TestEntry> tests_;
  std::vector<EgressEntry> egress_;
};

/// The per-cell streaming fold of a sequence of logs into a monitor. Which
/// lane owns a cell decides only which thread feeds it, never what it is fed.
class LogFold {
 public:
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  /// One committed log, resolved so a lane folding it reads nothing that a
  /// later commit() writes.
  struct Committed {
    /// A cell the commit created, and the lane that owns it.
    struct Born {
      std::uint32_t cell = kNoCell;
      StreamingAggregate* aggregate = nullptr;
      std::uint32_t lane = 0;
    };
    const SampleLog* log = nullptr;
    std::array<std::vector<std::uint32_t>, 3> by_dim;  // [test metric][DimId] -> cell
    std::vector<std::uint32_t> by_server;              // egress, [server] -> cell
    std::array<std::uint32_t, 3> test_all{kNoCell, kNoCell, kNoCell};  // under "all"
    std::uint32_t egress_all = kNoCell;
    std::vector<Born> born;
  };

  /// A fold into `monitor` on `lanes` lanes (at least one) of logs whose ids
  /// index `dimensions`, the run's one table, which must outlive the fold.
  /// Throws std::invalid_argument if the table repeats a key: its two ids
  /// would feed one cell from two lanes.
  LogFold(HealthMonitor& monitor, std::size_t lanes,
          std::span<const std::string> dimensions = {});

  LogFold(const LogFold&) = delete;
  LogFold& operator=(const LogFold&) = delete;

  [[nodiscard]] std::size_t lanes() const noexcept { return lanes_.size(); }

  /// Commits the next log, on one thread, in log order: notes its arrivals,
  /// counts its tests, creates each cell it feeds on first use and deals
  /// every new cell to the lane with the least estimated load (its uses in
  /// this log, heaviest first). Throws std::invalid_argument, with nothing
  /// noted, if the log recorded tests against another table or an arrival
  /// precedes the last arrival noted. `log` must outlive every fold() of
  /// `out`. May run while lanes fold earlier logs.
  void commit(const SampleLog& log, Committed& out);

  /// Feeds the cells lane `lane` owns from one committed log, in blocks of
  /// kFoldBlock records per cell. One lane's folds must run one at a time,
  /// in commit order; distinct lanes may fold concurrently.
  void fold(std::size_t lane, const Committed& log);

  /// Drains every lane's buffered values into the monitor. After the last
  /// fold(); nothing else may use the monitor until it returns.
  void finish();

  /// Records (tests or egress samples) a lane buffers per cell before
  /// draining; bounds a lane's buffers at a few hundred KiB.
  static constexpr std::size_t kFoldBlock = 4096;

 private:
  /// One lane's private state: its cells and their pending values.
  struct Lane {
    std::vector<StreamingAggregate*> aggregate;  // [cell], null unless owned
    std::vector<std::vector<double>> pending;    // [cell]
    std::vector<std::uint32_t> owned;
    std::size_t records = 0;                     // since the last drain
    std::vector<std::vector<double>*> view;      // one log's dims, this lane's buffers
  };

  /// The cell of (`metric`, `key`) in `slot`, created and queued for
  /// dealing on first use; `uses` is its weight in this log.
  std::uint32_t resolve(std::uint32_t& slot, std::string_view metric,
                        std::string_view key, std::uint64_t uses, Committed& out);
  static void drain(Lane& state);

  HealthMonitor* monitor_;
  std::vector<std::uint64_t> lane_load_;  // [lane] estimated observations
  std::uint32_t cells_ = 0;               // cells created so far

  std::span<const std::string> table_;                    // the run's table
  std::vector<std::array<std::uint32_t, 3>> test_cells_;  // [DimId][metric]
  std::vector<std::uint32_t> egress_cells_;               // [server]
  std::array<std::uint32_t, 3> test_all_{kNoCell, kNoCell, kNoCell};
  std::uint32_t egress_all_ = kNoCell;
  double last_arrival_;
  std::vector<std::uint64_t> uses_;       // per log: [DimId] uses
  std::vector<std::uint64_t> born_uses_;  // per log: weight per Committed::born

  std::vector<Lane> lanes_;
};

}  // namespace swiftest::obs::health
