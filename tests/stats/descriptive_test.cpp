#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

namespace swiftest::stats {
namespace {

TEST(Descriptive, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{7}), 7.0);
}

TEST(Descriptive, VarianceAndStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5}), 0.0);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0 / 3.0), 20.0);
}

TEST(Descriptive, QuantileUnsortedInput) {
  const std::vector<double> xs{40, 10, 30, 20};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 25.0);
}

TEST(Descriptive, QuantileClampsQ) {
  const std::vector<double> xs{1, 2, 3};
  EXPECT_DOUBLE_EQ(quantile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.5), 3.0);
}

TEST(Descriptive, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(Descriptive, SummarizeReportsAllFields) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(Descriptive, SummarizeEmpty) {
  const Summary s = summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Descriptive, SummarizeSortedMatchesSummarizeOnSortedInput) {
  const auto bits = [](const Summary& s) {
    return std::array<std::uint64_t, 9>{
        s.count,
        std::bit_cast<std::uint64_t>(s.mean),
        std::bit_cast<std::uint64_t>(s.stddev),
        std::bit_cast<std::uint64_t>(s.min),
        std::bit_cast<std::uint64_t>(s.median),
        std::bit_cast<std::uint64_t>(s.max),
        std::bit_cast<std::uint64_t>(s.p25),
        std::bit_cast<std::uint64_t>(s.p75),
        std::bit_cast<std::uint64_t>(s.p99)};
  };
  std::mt19937_64 rng(26);
  std::lognormal_distribution<double> util(3.0, 0.8);
  for (const std::size_t n : {0u, 1u, 2u, 7u, 1000u}) {
    std::vector<double> xs;
    for (std::size_t i = 0; i < n; ++i) xs.push_back(util(rng));
    std::sort(xs.begin(), xs.end());
    EXPECT_EQ(bits(summarize_sorted(xs)), bits(summarize(xs))) << "n=" << n;
  }
}

TEST(Descriptive, Fractions) {
  const std::vector<double> xs{1, 5, 10, 50, 100};
  EXPECT_DOUBLE_EQ(fraction_below(xs, 10.0), 0.4);
  EXPECT_DOUBLE_EQ(fraction_above(xs, 10.0), 0.4);
  EXPECT_DOUBLE_EQ(fraction_below(std::vector<double>{}, 1.0), 0.0);
}

TEST(Descriptive, JainFairness) {
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<double>{10, 10, 10}), 1.0);
  // One party takes everything: 1/n.
  EXPECT_NEAR(jain_fairness(std::vector<double>{30, 0, 0}), 1.0 / 3.0, 1e-12);
  // 2:1 split of two parties: 9/10.
  EXPECT_NEAR(jain_fairness(std::vector<double>{20, 10}), 0.9, 1e-12);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness(std::vector<double>{0, 0}), 0.0);
}

TEST(Descriptive, MeanAbove) {
  const std::vector<double> xs{1, 2, 300, 500};
  EXPECT_DOUBLE_EQ(mean_above(xs, 100.0), 400.0);
  EXPECT_DOUBLE_EQ(mean_above(xs, 1000.0), 0.0);
}

}  // namespace
}  // namespace swiftest::stats
