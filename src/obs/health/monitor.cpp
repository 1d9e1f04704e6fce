#include "obs/health/monitor.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace swiftest::obs::health {

void StreamingAggregate::add_moments(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void StreamingAggregate::observe(double v) {
  add_moments(v);
  p50_.observe(v);
  p95_.observe(v);
  p99_.observe(v);
}

void StreamingAggregate::observe_all(std::span<const double> vs) {
  for (const double v : vs) add_moments(v);
  p50_.observe_all(vs);
  p95_.observe_all(vs);
  p99_.observe_all(vs);
}

AggregateStats StreamingAggregate::stats() const {
  AggregateStats s;
  s.count = count_;
  s.sum = sum_;
  s.mean = count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  s.min = min_;
  s.max = max_;
  s.p50 = p50_.value();
  s.p95 = p95_.value();
  s.p99 = p99_.value();
  return s;
}

WindowedRate::WindowedRate(double window_seconds)
    : window_seconds_(window_seconds > 0.0 ? window_seconds : 1.0) {}

void WindowedRate::note(double t_seconds) {
  const auto window = static_cast<std::int64_t>(std::floor(t_seconds / window_seconds_));
  if (current_window_ < 0) {
    current_window_ = window;
  } else if (window > current_window_) {
    max_per_window_ = std::max(max_per_window_, static_cast<double>(current_count_));
    // Windows between the last event and this one were empty but elapsed.
    closed_windows_ += static_cast<std::uint64_t>(window - current_window_);
    current_window_ = window;
    current_count_ = 0;
  }
  ++current_count_;
  ++events_;
}

WindowedRate::Stats WindowedRate::stats() const {
  Stats s;
  s.window_seconds = window_seconds_;
  s.events = events_;
  s.windows = closed_windows_ + (current_window_ >= 0 ? 1 : 0);
  s.max_per_window =
      std::max(max_per_window_, static_cast<double>(current_count_));
  s.mean_per_window =
      s.windows == 0 ? 0.0
                     : static_cast<double>(events_) / static_cast<double>(s.windows);
  return s;
}

const AggregateStats* HealthSnapshot::find(std::string_view metric,
                                           std::string_view dimension) const {
  const auto m = metrics.find(std::string(metric));
  if (m == metrics.end()) return nullptr;
  const auto d = m->second.find(std::string(dimension));
  return d == m->second.end() ? nullptr : &d->second;
}

std::string_view server_dimension(std::uint64_t server, ServerKeyBuffer& buf) {
  constexpr std::string_view kPrefix = "server:";
  kPrefix.copy(buf.data(), kPrefix.size());
  const auto end =
      std::to_chars(buf.data() + kPrefix.size(), buf.data() + buf.size(), server).ptr;
  return {buf.data(), static_cast<std::size_t>(end - buf.data())};
}

namespace {

/// The cell for `dimension` in one metric's row, created on first use.
StreamingAggregate& cell_in(std::map<std::string, StreamingAggregate, std::less<>>& row,
                            std::string_view dimension) {
  auto it = row.find(dimension);
  if (it == row.end()) it = row.emplace(std::string(dimension), StreamingAggregate{}).first;
  return it->second;
}

}  // namespace

HealthMonitor::HealthMonitor(double rate_window_seconds)
    : arrivals_(rate_window_seconds) {}

HealthMonitor::ByDimension& HealthMonitor::row(std::string_view metric) {
  auto it = cells_.find(metric);
  if (it == cells_.end()) it = cells_.emplace(std::string(metric), ByDimension{}).first;
  return it->second;
}

StreamingAggregate& HealthMonitor::cell(std::string_view metric,
                                        std::string_view dimension) {
  return cell_in(row(metric), dimension);
}

void HealthMonitor::note_arrival(double t_seconds) { arrivals_.note(t_seconds); }

void HealthMonitor::record(std::string_view metric, double value,
                           std::span<const std::string> dimensions) {
  ByDimension& by_dim = row(metric);
  cell_in(by_dim, "all").observe(value);
  for (const std::string& dim : dimensions) {
    if (!dim.empty()) cell_in(by_dim, dim).observe(value);
  }
}

void HealthMonitor::record_test(const TestSample& sample) {
  ++tests_;
  record(kMetricDuration, sample.duration_s, sample.dimensions);
  record(kMetricDataUsage, sample.data_mb, sample.dimensions);
  record(kMetricDeviation, sample.deviation, sample.dimensions);
}

void HealthMonitor::record_egress_utilization(std::uint64_t server,
                                              double util_pct) {
  ServerKeyBuffer key;
  ByDimension& by_dim = row(kMetricEgressUtil);
  cell_in(by_dim, "all").observe(util_pct);
  cell_in(by_dim, server_dimension(server, key)).observe(util_pct);
}

HealthSnapshot HealthMonitor::snapshot() const {
  HealthSnapshot snap;
  for (const auto& [metric, by_dim] : cells_) {
    auto& out = snap.metrics[metric];
    for (const auto& [dim, agg] : by_dim) out[dim] = agg.stats();
  }
  snap.test_rate = arrivals_.stats();
  snap.tests = tests_;
  return snap;
}

}  // namespace swiftest::obs::health
