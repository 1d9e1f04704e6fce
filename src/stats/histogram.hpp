// Histograms, empirical CDFs, and binned PDFs — the plotting primitives behind
// the paper's distribution figures (Figs 4, 7, 13-16, 18, 19, 22, 26).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace swiftest::stats {

/// Fixed-width-bin histogram over [lo, hi). Out-of-range samples are clamped
/// into the first/last bin so that totals are preserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void add_all(std::span<const double> xs);

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_low(std::size_t bin) const;
  [[nodiscard]] double bin_center(std::size_t bin) const;
  [[nodiscard]] double bin_width() const noexcept { return width_; }

  /// Probability density at each bin center (integrates to ~1 over the range).
  [[nodiscard]] std::vector<double> density() const;

  /// Fraction of samples per bin.
  [[nodiscard]] std::vector<double> frequencies() const;

 private:
  double lo_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

/// Empirical CDF built from a sample; answers F(x) and quantile queries.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::span<const double> xs);

  /// F(x) = fraction of samples <= x.
  [[nodiscard]] double at(double x) const;

  /// Inverse CDF by linear interpolation; q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::size_t sample_count() const noexcept { return sorted_.size(); }

  /// Largest pointwise gap to another empirical CDF (two-sample
  /// Kolmogorov-Smirnov statistic); used by generator-calibration tests.
  [[nodiscard]] double ks_distance(const EmpiricalCdf& other) const;

 private:
  std::vector<double> sorted_;
};

/// Renders a compact fixed-width ASCII chart of a series — used by the bench
/// binaries so each figure is eyeball-checkable from the terminal.
[[nodiscard]] std::string ascii_chart(std::span<const double> ys, std::size_t height = 10);

}  // namespace swiftest::stats
