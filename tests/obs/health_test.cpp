#include "obs/health/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/health/quantile.hpp"

namespace swiftest::obs::health {
namespace {

double exact_quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + frac * (xs[hi] - xs[lo]);
}

TEST(P2Quantile, ExactBelowFiveObservations) {
  P2Quantile median(0.5);
  EXPECT_EQ(median.value(), 0.0);
  median.observe(10.0);
  EXPECT_DOUBLE_EQ(median.value(), 10.0);
  median.observe(2.0);
  median.observe(30.0);
  // Sorted prefix {2, 10, 30}: the median is the middle sample.
  EXPECT_DOUBLE_EQ(median.value(), 10.0);
  EXPECT_EQ(median.count(), 3u);
}

TEST(P2Quantile, TracksUniformStream) {
  P2Quantile p95(0.95);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.0, 100.0);
  std::vector<double> xs;
  for (int i = 0; i < 20'000; ++i) {
    const double x = dist(rng);
    xs.push_back(x);
    p95.observe(x);
  }
  EXPECT_NEAR(p95.value(), exact_quantile(xs, 0.95), 1.0);
}

TEST(P2Quantile, TracksSkewedStream) {
  // Heavy-tailed input (exponential): the regime quantile sketches get wrong.
  P2Quantile p50(0.5);
  P2Quantile p99(0.99);
  std::mt19937_64 rng(21);
  std::exponential_distribution<double> dist(1.0);
  std::vector<double> xs;
  for (int i = 0; i < 50'000; ++i) {
    const double x = dist(rng);
    xs.push_back(x);
    p50.observe(x);
    p99.observe(x);
  }
  EXPECT_NEAR(p50.value(), exact_quantile(xs, 0.50), 0.05);
  EXPECT_NEAR(p99.value(), exact_quantile(xs, 0.99), 0.5);
}

TEST(P2Quantile, DeterministicForSameSequence) {
  P2Quantile a(0.95);
  P2Quantile b(0.95);
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> xs;
  for (int i = 0; i < 1'000; ++i) xs.push_back(dist(rng));
  for (double x : xs) a.observe(x);
  for (double x : xs) b.observe(x);
  EXPECT_EQ(a.value(), b.value());
}

/// The textbook P² update with double marker positions and all five desired
/// positions, as P2Quantile computed it before positions became integers:
/// the reference P2Quantile must match bit for bit.
class ReferenceP2 {
 public:
  explicit ReferenceP2(double q) : q_(std::clamp(q, 0.0, 1.0)) {
    increment_ = {0.0, q_ / 2.0, q_, (1.0 + q_) / 2.0, 1.0};
  }

  void observe(double x) {
    if (count_ < 5) {
      heights_[count_] = x;
      ++count_;
      std::sort(heights_.begin(), heights_.begin() + static_cast<long>(count_));
      if (count_ == 5) {
        for (std::size_t i = 0; i < 5; ++i) {
          positions_[i] = static_cast<double>(i + 1);
          desired_[i] = 1.0 + 4.0 * increment_[i];
        }
      }
      return;
    }
    ++count_;
    std::size_t cell;
    if (x < heights_[0]) {
      heights_[0] = x;
      cell = 0;
    } else if (x >= heights_[4]) {
      heights_[4] = std::max(heights_[4], x);
      cell = 3;
    } else {
      cell = 0;
      while (cell < 3 && x >= heights_[cell + 1]) ++cell;
    }
    for (std::size_t i = cell + 1; i < 5; ++i) positions_[i] += 1.0;
    for (std::size_t i = 0; i < 5; ++i) desired_[i] += increment_[i];
    for (std::size_t i = 1; i <= 3; ++i) {
      const double gap = desired_[i] - positions_[i];
      if ((gap >= 1.0 && positions_[i + 1] - positions_[i] > 1.0) ||
          (gap <= -1.0 && positions_[i - 1] - positions_[i] < -1.0)) {
        const double d = gap >= 1.0 ? 1.0 : -1.0;
        double candidate = parabolic(i, d);
        if (candidate <= heights_[i - 1] || candidate >= heights_[i + 1]) {
          candidate = linear(i, d);
        }
        heights_[i] = candidate;
        positions_[i] += d;
      }
    }
  }

  [[nodiscard]] double value() const {
    if (count_ == 0) return 0.0;
    if (count_ < 5) {
      const double rank = q_ * static_cast<double>(count_ - 1);
      const auto lo = static_cast<std::size_t>(rank);
      const std::size_t hi = std::min<std::size_t>(lo + 1, count_ - 1);
      const double frac = rank - static_cast<double>(lo);
      return heights_[lo] + frac * (heights_[hi] - heights_[lo]);
    }
    return heights_[2];
  }

 private:
  [[nodiscard]] double parabolic(std::size_t i, double d) const {
    return heights_[i] +
           d / (positions_[i + 1] - positions_[i - 1]) *
               ((positions_[i] - positions_[i - 1] + d) * (heights_[i + 1] - heights_[i]) /
                    (positions_[i + 1] - positions_[i]) +
                (positions_[i + 1] - positions_[i] - d) * (heights_[i] - heights_[i - 1]) /
                    (positions_[i] - positions_[i - 1]));
  }
  [[nodiscard]] double linear(std::size_t i, double d) const {
    const auto next = static_cast<std::size_t>(static_cast<double>(i) + d);
    return heights_[i] +
           d * (heights_[next] - heights_[i]) / (positions_[next] - positions_[i]);
  }

  double q_;
  std::size_t count_ = 0;
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> increment_{};
};

/// The bits of `x`, with every NaN as one value: which NaN an operation on a
/// NaN or infinite operand returns is up to the compiler's operand order,
/// and no output distinguishes them (JSON renders each as "NaN").
std::uint64_t bits(double x) {
  return std::isnan(x) ? std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN())
                       : std::bit_cast<std::uint64_t>(x);
}

/// Named streams covering ties, zeros of both signs, skew, monotone runs and
/// non-finite values (inside the first five observations too).
std::vector<std::pair<std::string, std::vector<double>>> pin_streams() {
  constexpr int kN = 3'000;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng(19);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::lognormal_distribution<double> lognormal(0.0, 1.5);
  std::vector<std::pair<std::string, std::vector<double>>> out(9);
  out[0].first = "two-valued";
  out[1].first = "mostly-zero";
  out[2].first = "lognormal";
  out[3].first = "sorted";
  out[4].first = "reversed";
  out[5].first = "constant";
  out[6].first = "signed-zero";
  out[7].first = "non-finite";
  out[8].first = "non-finite-first";
  for (int i = 0; i < kN; ++i) {
    const double u = unit(rng);
    out[0].second.push_back(u < 0.7 ? 1.0 : 2.0);
    out[1].second.push_back(u < 0.93 ? 0.0 : lognormal(rng));
    out[2].second.push_back(lognormal(rng));
    out[3].second.push_back(0.25 * i);
    out[4].second.push_back(0.25 * (kN - i));
    out[5].second.push_back(3.5);
    out[6].second.push_back(u < 0.5 ? 0.0 : -0.0);
    const double v = lognormal(rng);
    out[7].second.push_back(i % 97 == 50 ? nan : i % 89 == 40 ? kInf : i % 83 == 30 ? -kInf : v);
  }
  out[8].second = {nan, 1.0, kInf, -kInf, 2.0};
  for (int i = 0; i < kN; ++i) {
    out[8].second.push_back(i % 13 == 0 ? nan : i % 17 == 0 ? kInf : lognormal(rng));
  }
  return out;
}

constexpr double kPinQuantiles[] = {0.0, 0.3, 0.5, 0.95, 0.99, 1.0};

TEST(P2Quantile, BitExactAgainstDoublePositionReference) {
  for (const auto& [name, xs] : pin_streams()) {
    for (const double q : kPinQuantiles) {
      P2Quantile fast(q);
      ReferenceP2 reference(q);
      for (std::size_t i = 0; i < xs.size(); ++i) {
        fast.observe(xs[i]);
        reference.observe(xs[i]);
        ASSERT_EQ(bits(fast.value()), bits(reference.value()))
            << name << " q=" << q << " after " << i + 1 << " observations";
      }
      EXPECT_EQ(fast.count(), xs.size());
    }
  }
}

std::array<std::uint64_t, 8> stat_bits(const AggregateStats& s) {
  return {s.count, bits(s.sum), bits(s.mean), bits(s.min),
          bits(s.max), bits(s.p50), bits(s.p95), bits(s.p99)};
}

TEST(StreamingAggregate, ObserveAllMatchesRepeatedObserve) {
  // Spans of every size from empty up, so splits land inside the five-value
  // warm-up and across it.
  for (const auto& [name, xs] : pin_streams()) {
    for (const double q : kPinQuantiles) {
      P2Quantile one(q);
      P2Quantile spans(q);
      for (const double x : xs) one.observe(x);
      const std::span<const double> all(xs);
      for (std::size_t at = 0, len = 0; at < all.size(); at += len, len = (len + 1) % 9) {
        spans.observe_all(all.subspan(at, std::min(len, all.size() - at)));
      }
      EXPECT_EQ(bits(spans.value()), bits(one.value())) << name << " q=" << q;
      EXPECT_EQ(spans.count(), one.count()) << name << " q=" << q;
    }

    StreamingAggregate one;
    StreamingAggregate spans;
    StreamingAggregate whole;
    for (const double x : xs) one.observe(x);
    const std::span<const double> all(xs);
    for (std::size_t at = 0, len = 0; at < all.size(); at += len, len = (len + 1) % 9) {
      spans.observe_all(all.subspan(at, std::min(len, all.size() - at)));
    }
    whole.observe_all({});
    whole.observe_all(all);
    whole.observe_all({});
    EXPECT_EQ(stat_bits(spans.stats()), stat_bits(one.stats())) << name;
    EXPECT_EQ(stat_bits(whole.stats()), stat_bits(one.stats())) << name;
  }
  StreamingAggregate empty;
  empty.observe_all({});
  EXPECT_EQ(stat_bits(empty.stats()), stat_bits(StreamingAggregate{}.stats()));
}

TEST(StreamingAggregate, MomentsAndQuantiles) {
  StreamingAggregate agg;
  for (int i = 1; i <= 100; ++i) agg.observe(static_cast<double>(i));
  const auto s = agg.stats();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.p50, 50.0, 3.0);
  EXPECT_NEAR(s.p95, 95.0, 3.0);
  EXPECT_NEAR(s.p99, 99.0, 3.0);
}

TEST(WindowedRate, CountsEmptyIntermediateWindows) {
  WindowedRate rate(10.0);
  rate.note(1.0);   // window 0
  rate.note(2.0);   // window 0
  rate.note(55.0);  // window 5 — windows 1..4 are empty but counted
  const auto s = rate.stats();
  EXPECT_EQ(s.events, 3u);
  EXPECT_EQ(s.windows, 6u);
  EXPECT_DOUBLE_EQ(s.max_per_window, 2.0);
  EXPECT_DOUBLE_EQ(s.mean_per_window, 3.0 / 6.0);
}

TEST(WindowedRate, EmptyIsZero) {
  const auto s = WindowedRate(10.0).stats();
  EXPECT_EQ(s.events, 0u);
  EXPECT_EQ(s.windows, 0u);
  EXPECT_DOUBLE_EQ(s.mean_per_window, 0.0);
}

TEST(HealthMonitor, RecordsAllPlusDimensions) {
  HealthMonitor monitor;
  const std::vector<std::string> dims = {"tech:4g", "isp:2", "server:0"};
  TestSample sample;
  sample.duration_s = 1.5;
  sample.data_mb = 20.0;
  sample.deviation = 0.05;
  sample.dimensions = dims;
  monitor.note_arrival(0.5);
  monitor.record_test(sample);

  const auto snap = monitor.snapshot();
  EXPECT_EQ(snap.tests, 1u);
  for (const char* metric :
       {kMetricDuration, kMetricDataUsage, kMetricDeviation}) {
    for (const char* dim : {"all", "tech:4g", "isp:2", "server:0"}) {
      const auto* cell = snap.find(metric, dim);
      ASSERT_NE(cell, nullptr) << metric << " / " << dim;
      EXPECT_EQ(cell->count, 1u);
    }
  }
  EXPECT_DOUBLE_EQ(snap.find(kMetricDuration, "all")->mean, 1.5);
  EXPECT_DOUBLE_EQ(snap.find(kMetricDeviation, "tech:4g")->mean, 0.05);
  EXPECT_EQ(snap.find(kMetricDuration, "tech:5g"), nullptr);
  EXPECT_EQ(snap.find("no_such_metric", "all"), nullptr);
}

TEST(HealthMonitor, EgressUtilizationKeysServers) {
  HealthMonitor monitor;
  monitor.record_egress_utilization(3, 40.0);
  monitor.record_egress_utilization(3, 60.0);
  monitor.record_egress_utilization(7, 10.0);
  const auto snap = monitor.snapshot();
  const auto* all = snap.find(kMetricEgressUtil, "all");
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->count, 3u);
  const auto* s3 = snap.find(kMetricEgressUtil, "server:3");
  ASSERT_NE(s3, nullptr);
  EXPECT_EQ(s3->count, 2u);
  EXPECT_DOUBLE_EQ(s3->mean, 50.0);
  ASSERT_NE(snap.find(kMetricEgressUtil, "server:7"), nullptr);
  // Egress windows are not tests.
  EXPECT_EQ(snap.tests, 0u);
}

TEST(HealthMonitor, SkipsEmptyDimensionKeys) {
  HealthMonitor monitor;
  const std::vector<std::string> dims = {"", "tech:4g"};
  monitor.record("x", 1.0, dims);
  const auto snap = monitor.snapshot();
  ASSERT_NE(snap.find("x", "all"), nullptr);
  ASSERT_NE(snap.find("x", "tech:4g"), nullptr);
  EXPECT_EQ(snap.find("x", ""), nullptr);
}

TEST(HealthMonitor, ConstantMemoryAcrossManyTests) {
  // 50k tests over 4 dimension keys: the snapshot stays O(cells), and the
  // aggregates match the closed forms for the constant stream.
  HealthMonitor monitor;
  const std::vector<std::string> dims = {"tech:wifi5"};
  for (int i = 0; i < 50'000; ++i) {
    TestSample sample;
    sample.duration_s = 2.0;
    sample.data_mb = 10.0;
    sample.deviation = 0.0;
    sample.dimensions = dims;
    monitor.note_arrival(static_cast<double>(i) * 0.01);
    monitor.record_test(sample);
  }
  const auto snap = monitor.snapshot();
  EXPECT_EQ(snap.tests, 50'000u);
  const auto* cell = snap.find(kMetricDuration, "tech:wifi5");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 50'000u);
  EXPECT_DOUBLE_EQ(cell->p95, 2.0);
  EXPECT_DOUBLE_EQ(cell->max, 2.0);
  // 50k arrivals at 100/s over 10 s windows: 1000 per window.
  EXPECT_EQ(snap.test_rate.events, 50'000u);
  EXPECT_NEAR(snap.test_rate.mean_per_window, 1000.0, 1.0);
}

}  // namespace
}  // namespace swiftest::obs::health
