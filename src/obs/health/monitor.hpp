// Online fleet-health aggregation (the §5 operational signals).
//
// A HealthMonitor consumes the per-test and per-window observations a run
// produces — test duration, data usage, deviation from ground truth, and
// per-server egress utilization — and maintains streaming aggregates only:
// count/sum/min/max plus P² p50/p95/p99 per (metric, dimension) cell, and a
// windowed test-arrival rate. No per-event data is retained, so memory is
// O(dimensions), not O(tests).
//
// Dimension keys are plain strings ("all", "tech:4g", "isp:1", "server:7");
// callers build them from the src/dataset taxonomy (dataset::dimension_key)
// so the health layer itself depends only on core. Every sample lands in the
// "all" cell plus each provided dimension cell. Strings are only the wire
// format: cells are name-keyed maps searched by string_view, so ingest builds
// no strings, and a cell's address is a stable handle for the parallel fold
// (sample_log.hpp). Snapshots are std::map-keyed and therefore
// deterministically ordered — same seed, same bytes.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "obs/health/quantile.hpp"

namespace swiftest::obs::health {

/// Point-in-time summary of one (metric, dimension) cell.
struct AggregateStats {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Streaming aggregate: moments plus three P² quantile trackers.
class StreamingAggregate {
 public:
  void observe(double v);
  /// Observes every value of `vs` in order: the same state as calling
  /// observe() on each, with each tracker run over the span in its own loop.
  void observe_all(std::span<const double> vs);
  [[nodiscard]] AggregateStats stats() const;

 private:
  void add_moments(double v);  // count, sum, min and max

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  P2Quantile p50_{0.50};
  P2Quantile p95_{0.95};
  P2Quantile p99_{0.99};
};

/// Per-window event-rate tracker over a monotone (sim-time) clock. Windows
/// with no events between the first and last observed window count as empty
/// so the mean is a true rate, not a busy-window mean.
class WindowedRate {
 public:
  explicit WindowedRate(double window_seconds = 10.0);

  /// Notes one event at time `t_seconds` (must be non-decreasing).
  void note(double t_seconds);

  struct Stats {
    double window_seconds = 0.0;
    std::uint64_t events = 0;
    std::uint64_t windows = 0;           // windows spanned, incl. empty ones
    double mean_per_window = 0.0;
    double max_per_window = 0.0;
  };
  /// Folds the current partial window into the result.
  [[nodiscard]] Stats stats() const;

 private:
  double window_seconds_;
  std::int64_t current_window_ = -1;
  std::uint64_t current_count_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t closed_windows_ = 0;
  double max_per_window_ = 0.0;
};

/// One completed bandwidth test, as the health layer sees it.
struct TestSample {
  double duration_s = 0.0;   // total test duration (probe + selection)
  double data_mb = 0.0;      // radio data consumed
  double deviation = 0.0;    // |est - truth| / max(est, truth); 0 = perfect
  /// Dimension keys ("tech:4g", "isp:1", "server:12", ...); empty entries
  /// are skipped. The sample always also lands in the "all" cell.
  std::span<const std::string> dimensions;
};

/// Room for any "server:<index>" key.
using ServerKeyBuffer = std::array<char, 32>;

/// The dimension key "server:<index>", formatted into `buf` without
/// allocating; the view points into `buf`.
std::string_view server_dimension(std::uint64_t server, ServerKeyBuffer& buf);

/// metric name -> dimension key -> aggregate.
struct HealthSnapshot {
  std::map<std::string, std::map<std::string, AggregateStats>> metrics;
  WindowedRate::Stats test_rate;
  std::uint64_t tests = 0;

  /// The aggregate for (metric, dimension), or nullptr.
  [[nodiscard]] const AggregateStats* find(std::string_view metric,
                                           std::string_view dimension) const;
};

/// Canonical metric names — the four §5 operational signals.
inline constexpr const char* kMetricDuration = "duration_s";
inline constexpr const char* kMetricDataUsage = "data_mb";
inline constexpr const char* kMetricDeviation = "deviation";
inline constexpr const char* kMetricEgressUtil = "egress_util";

class HealthMonitor {
 public:
  explicit HealthMonitor(double rate_window_seconds = 10.0);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Notes a test arrival at sim time `t_seconds` (feeds the windowed rate).
  void note_arrival(double t_seconds);

  /// Records a completed test: duration, data, and deviation each land in
  /// "all" plus every dimension key in `sample.dimensions`.
  void record_test(const TestSample& sample);

  /// Records one egress-utilization window sample (%) for a server; lands in
  /// "all" and "server:<index>".
  void record_egress_utilization(std::uint64_t server, double util_pct);

  /// Records `value` for an arbitrary metric under "all" + `dimensions`.
  void record(std::string_view metric, double value,
              std::span<const std::string> dimensions = {});

  /// The aggregate of cell (metric, dimension), created on first use. The
  /// reference stays valid for the monitor's lifetime — map nodes never
  /// move — so distinct cells may be fed from distinct threads at once while
  /// one other thread creates cells, provided nothing records meanwhile.
  StreamingAggregate& cell(std::string_view metric, std::string_view dimension);

  /// Counts `n` completed tests whose samples were fed through cell().
  void add_tests(std::uint64_t n) noexcept { tests_ += n; }

  [[nodiscard]] HealthSnapshot snapshot() const;

 private:
  using ByDimension = std::map<std::string, StreamingAggregate, std::less<>>;

  ByDimension& row(std::string_view metric);

  std::map<std::string, ByDimension, std::less<>> cells_;
  WindowedRate arrivals_;
  std::uint64_t tests_ = 0;
};

}  // namespace swiftest::obs::health
