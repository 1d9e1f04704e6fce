#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

namespace swiftest::stats {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

double quantile(std::span<const double> xs, double q) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return quantile_sorted(sorted, q);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary summarize_sorted(std::span<const double> sorted) {
  Summary s;
  s.count = sorted.size();
  if (sorted.empty()) return s;
  s.mean = mean(sorted);
  s.stddev = stddev(sorted);
  s.min = sorted.front();
  s.max = sorted.back();
  s.median = quantile_sorted(sorted, 0.5);
  s.p25 = quantile_sorted(sorted, 0.25);
  s.p75 = quantile_sorted(sorted, 0.75);
  s.p99 = quantile_sorted(sorted, 0.99);
  return s;
}

Summary summarize(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  Summary s = summarize_sorted(sorted);
  s.mean = mean(xs);
  s.stddev = stddev(xs);
  return s;
}

double fraction_below(std::span<const double> xs, double threshold) {
  if (xs.empty()) return 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x < threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

double fraction_above(std::span<const double> xs, double threshold) {
  if (xs.empty()) return 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x > threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(xs.size());
}

double jain_fairness(std::span<const double> allocations) {
  if (allocations.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(allocations.size()) * sum_sq);
}

double mean_above(std::span<const double> xs, double threshold) {
  double sum = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x > threshold) {
      sum += x;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace swiftest::stats
