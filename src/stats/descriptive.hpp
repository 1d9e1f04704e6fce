// Descriptive statistics over sample vectors.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace swiftest::stats {

/// Summary of a sample: the numbers the paper reports for each distribution.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
  double p99 = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double variance(std::span<const double> xs);  // population variance
[[nodiscard]] double stddev(std::span<const double> xs);

/// Quantile by linear interpolation between closest ranks; q in [0, 1].
/// The input need not be sorted (a sorted copy is made internally).
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// Quantile over an already-sorted sample; avoids the internal copy.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

[[nodiscard]] double median(std::span<const double> xs);

/// The summary of any sample; mean and stddev are summed in the caller's
/// order.
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// The summary of a sample already sorted ascending, without a sorted copy.
[[nodiscard]] Summary summarize_sorted(std::span<const double> sorted);

/// Fraction of samples strictly below `threshold`.
[[nodiscard]] double fraction_below(std::span<const double> xs, double threshold);

/// Fraction of samples strictly above `threshold`.
[[nodiscard]] double fraction_above(std::span<const double> xs, double threshold);

/// Mean of the samples strictly above `threshold` (0 if none).
[[nodiscard]] double mean_above(std::span<const double> xs, double threshold);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1 = perfectly equal
/// allocations, 1/n = one party takes everything.
[[nodiscard]] double jain_fairness(std::span<const double> allocations);

}  // namespace swiftest::stats
