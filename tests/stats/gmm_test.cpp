#include "stats/gmm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/rng.hpp"

namespace swiftest::stats {
namespace {

std::vector<double> sample_bimodal(std::size_t n, core::Rng& rng) {
  // 70% N(100, 10), 30% N(300, 20) — the "broadband plan" shape from Fig 16.
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.7)) {
      xs.push_back(rng.normal(100.0, 10.0));
    } else {
      xs.push_back(rng.normal(300.0, 20.0));
    }
  }
  return xs;
}

TEST(GaussianMixture, NormalizesWeights) {
  GaussianMixture gmm({{2.0, {0.0, 1.0}}, {2.0, {10.0, 1.0}}});
  EXPECT_DOUBLE_EQ(gmm.components()[0].weight, 0.5);
  EXPECT_DOUBLE_EQ(gmm.components()[1].weight, 0.5);
}

TEST(GaussianMixture, RejectsInvalidComponents) {
  using Components = std::vector<MixtureComponent>;
  EXPECT_THROW(GaussianMixture(Components{{-1.0, {0.0, 1.0}}}), std::invalid_argument);
  EXPECT_THROW(GaussianMixture(Components{{1.0, {0.0, 0.0}}}), std::invalid_argument);
  EXPECT_THROW(GaussianMixture(Components{{0.0, {0.0, 1.0}}}), std::invalid_argument);
}

TEST(GaussianMixture, PdfIsWeightedSum) {
  GaussianMixture gmm({{0.5, {0.0, 1.0}}, {0.5, {10.0, 1.0}}});
  const Gaussian a{0.0, 1.0}, b{10.0, 1.0};
  EXPECT_NEAR(gmm.pdf(0.0), 0.5 * a.pdf(0.0) + 0.5 * b.pdf(0.0), 1e-12);
  EXPECT_NEAR(gmm.pdf(5.0), 0.5 * a.pdf(5.0) + 0.5 * b.pdf(5.0), 1e-12);
}

TEST(GaussianMixture, ModeQueries) {
  GaussianMixture gmm({{0.2, {50.0, 5.0}}, {0.5, {100.0, 10.0}}, {0.3, {300.0, 20.0}}});
  EXPECT_DOUBLE_EQ(gmm.most_probable_mode(), 100.0);
  const auto modes = gmm.mode_means();
  ASSERT_EQ(modes.size(), 3u);
  EXPECT_TRUE(std::is_sorted(modes.begin(), modes.end()));
  // Above 100: candidates {300} -> 300.
  EXPECT_DOUBLE_EQ(gmm.most_probable_mode_above(100.0), 300.0);
  // Above 40: candidates {50 (0.2), 100 (0.5), 300 (0.3)} -> 100.
  EXPECT_DOUBLE_EQ(gmm.most_probable_mode_above(40.0), 100.0);
  // Above the top mode: nothing larger, returns the floor.
  EXPECT_DOUBLE_EQ(gmm.most_probable_mode_above(400.0), 400.0);
}

TEST(GaussianMixture, SamplesFollowMixture) {
  GaussianMixture gmm({{0.7, {100.0, 10.0}}, {0.3, {300.0, 20.0}}});
  core::Rng rng(99);
  int low = 0, high = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = gmm.sample(rng);
    if (x < 200.0) ++low;
    else ++high;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(high) / n, 0.3, 0.02);
}

TEST(FitGmm, RecoversBimodalParameters) {
  core::Rng rng(7);
  const auto xs = sample_bimodal(5000, rng);
  const EmFit fit = fit_gmm(xs, 2);
  ASSERT_EQ(fit.mixture.component_count(), 2u);
  const auto& c = fit.mixture.components();
  // Components are sorted by mean.
  EXPECT_NEAR(c[0].dist.mean, 100.0, 3.0);
  EXPECT_NEAR(c[1].dist.mean, 300.0, 6.0);
  EXPECT_NEAR(c[0].weight, 0.7, 0.03);
  EXPECT_NEAR(c[1].weight, 0.3, 0.03);
  EXPECT_NEAR(c[0].dist.stddev, 10.0, 2.0);
  EXPECT_NEAR(c[1].dist.stddev, 20.0, 4.0);
}

TEST(FitGmm, SingleComponentMatchesMoments) {
  core::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.normal(42.0, 5.0));
  const EmFit fit = fit_gmm(xs, 1);
  EXPECT_NEAR(fit.mixture.components()[0].dist.mean, 42.0, 0.5);
  EXPECT_NEAR(fit.mixture.components()[0].dist.stddev, 5.0, 0.5);
}

TEST(FitGmm, InvalidArgumentsThrow) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(fit_gmm(xs, 0), std::invalid_argument);
  EXPECT_THROW(fit_gmm(xs, 3), std::invalid_argument);
}

TEST(FitGmmBic, SelectsTwoComponentsForBimodalData) {
  core::Rng rng(13);
  const auto xs = sample_bimodal(4000, rng);
  const EmFit fit = fit_gmm_bic(xs, 1, 4);
  EXPECT_GE(fit.mixture.component_count(), 2u);
  EXPECT_LE(fit.mixture.component_count(), 3u);
}

// Pins the bits of a BIC-selected fit and of every candidate it was picked
// from (recorded from the serial fit). The well-separated k = 2 winner
// converges in four iterations and absorbs last-bit changes in the E-step;
// the k = 1 and k = 4 candidates do not, so any reordering of the E-step's
// floating-point operations moves at least one of these literals.
TEST(FitGmmBic, BimodalFitIsBitExact) {
  core::Rng rng(13);
  const auto xs = sample_bimodal(4000, rng);
  const EmFit fit = fit_gmm_bic(xs, 1, 4);
  ASSERT_EQ(fit.mixture.component_count(), 2u);
  EXPECT_EQ(fit.log_likelihood, -0x1.1b42bf6ce1631p+14);
  EXPECT_EQ(fit.iterations, 4u);
  const auto& c = fit.mixture.components();
  EXPECT_EQ(c[0].weight, 0x1.66872b020c499p-1);
  EXPECT_EQ(c[0].dist.mean, 0x1.900d3918728e3p+6);
  EXPECT_EQ(c[0].dist.stddev, 0x1.39e1f5dac096dp+3);
  EXPECT_EQ(c[1].weight, 0x1.32f1a9fbe76cep-2);
  EXPECT_EQ(c[1].dist.mean, 0x1.2cc5171b55bf1p+8);
  EXPECT_EQ(c[1].dist.stddev, 0x1.463019b5eedd5p+4);

  struct Candidate {
    double log_likelihood;
    std::size_t iterations;
  };
  const Candidate candidates[] = {{-0x1.73fb09fe616fap+14, 2},
                                  {-0x1.1b42bf6ce1631p+14, 4},
                                  {-0x1.1b42b37c1d6cfp+14, 4},
                                  {-0x1.1b3cfa4b36e32p+14, 60}};
  for (std::size_t k = 1; k <= 4; ++k) {
    const EmFit candidate = fit_gmm(xs, k);
    EXPECT_EQ(candidate.log_likelihood, candidates[k - 1].log_likelihood) << "k " << k;
    EXPECT_EQ(candidate.iterations, candidates[k - 1].iterations) << "k " << k;
  }
}

// Bytes of one fit, for memcmp-exact comparison (doubles compared as bits).
std::vector<unsigned char> fit_bytes(const EmFit& fit) {
  std::vector<double> values{fit.log_likelihood, static_cast<double>(fit.iterations),
                             fit.converged ? 1.0 : 0.0};
  for (const auto& c : fit.mixture.components()) {
    values.push_back(c.weight);
    values.push_back(c.dist.mean);
    values.push_back(c.dist.stddev);
  }
  std::vector<unsigned char> bytes(values.size() * sizeof(double));
  std::memcpy(bytes.data(), values.data(), bytes.size());
  return bytes;
}

// The many-sets fit runs every (set, k) fit on the shared pool; each set's
// result must equal, bit for bit, a plain serial loop of fit_gmm followed by
// the lowest-BIC-first pick. The third set has fewer samples than max_k, so
// the k <= n bound applies. ci.sh runs this under ThreadSanitizer.
TEST(FitGmmBic, ManySetsMatchSerialFits) {
  core::Rng rng(31);
  const auto bimodal = sample_bimodal(3000, rng);
  std::vector<double> unimodal;
  for (int i = 0; i < 2000; ++i) unimodal.push_back(rng.normal(60.0, 8.0));
  const std::vector<double> tiny{10.0, 11.5, 30.0};
  const std::span<const double> sets[] = {bimodal, unimodal, tiny};
  constexpr std::size_t kMinK = 1, kMaxK = 4;

  const auto parallel = fit_gmm_bic(sets, kMinK, kMaxK);
  ASSERT_EQ(parallel.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    SCOPED_TRACE(s);
    const auto xs = sets[s];
    EmFit serial;
    double best_bic = std::numeric_limits<double>::infinity();
    for (std::size_t k = kMinK; k <= kMaxK && k <= xs.size(); ++k) {
      EmFit fit = fit_gmm(xs, k);
      const double b = bic(fit, xs.size());
      if (b < best_bic) {
        best_bic = b;
        serial = std::move(fit);
      }
    }
    ASSERT_GT(serial.mixture.component_count(), 0u);
    EXPECT_EQ(parallel[s].mixture.component_count(), serial.mixture.component_count());
    EXPECT_EQ(fit_bytes(parallel[s]), fit_bytes(serial));
    EXPECT_EQ(fit_bytes(fit_gmm_bic(xs, kMinK, kMaxK)), fit_bytes(serial));
  }
  EXPECT_LE(parallel[2].mixture.component_count(), tiny.size());
}

TEST(FitGmmBic, BadKRangeThrows) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::span<const double> sets[] = {xs, xs};
  EXPECT_THROW((void)fit_gmm_bic(sets, 0, 2), std::invalid_argument);
  EXPECT_THROW((void)fit_gmm_bic(sets, 3, 2), std::invalid_argument);
  EXPECT_THROW((void)fit_gmm_bic(xs, 0, 2), std::invalid_argument);
  EXPECT_THROW((void)fit_gmm_bic(xs, 3, 2), std::invalid_argument);
}

TEST(FitGmmBic, SelectsOneComponentForUnimodalData) {
  core::Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 3000; ++i) xs.push_back(rng.normal(100.0, 10.0));
  const EmFit fit = fit_gmm_bic(xs, 1, 3);
  EXPECT_EQ(fit.mixture.component_count(), 1u);
}

TEST(FitGmm, LikelihoodImprovesWithCorrectK) {
  core::Rng rng(23);
  const auto xs = sample_bimodal(3000, rng);
  const EmFit one = fit_gmm(xs, 1);
  const EmFit two = fit_gmm(xs, 2);
  EXPECT_GT(two.log_likelihood, one.log_likelihood);
}

TEST(FitGmm, DeterministicForFixedSeed) {
  core::Rng rng(29);
  const auto xs = sample_bimodal(2000, rng);
  const EmFit a = fit_gmm(xs, 2);
  const EmFit b = fit_gmm(xs, 2);
  EXPECT_DOUBLE_EQ(a.log_likelihood, b.log_likelihood);
  EXPECT_DOUBLE_EQ(a.mixture.components()[0].dist.mean, b.mixture.components()[0].dist.mean);
}

}  // namespace
}  // namespace swiftest::stats
