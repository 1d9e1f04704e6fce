// Multi-modal Gaussian mixture model.
//
// §5.1 of the paper: "for a given access technology, its access bandwidth X in
// fact follows a multi-modal Gaussian distribution
//     P(X) = sum_i w_i * N(X | mu_i, sigma_i)".
// Swiftest fits this mixture to recent test results per technology and uses
// the modes to choose probing rates. This module provides the mixture itself,
// EM fitting with k-means++ initialisation, and BIC-based selection of the
// component count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "stats/gaussian.hpp"

namespace swiftest::stats {

/// One component of a mixture: weight w_i and N(mu_i, sigma_i^2).
struct MixtureComponent {
  double weight = 1.0;
  Gaussian dist;
};

class GaussianMixture {
 public:
  GaussianMixture() = default;
  explicit GaussianMixture(std::vector<MixtureComponent> components);

  [[nodiscard]] const std::vector<MixtureComponent>& components() const noexcept {
    return components_;
  }
  [[nodiscard]] std::size_t component_count() const noexcept { return components_.size(); }

  [[nodiscard]] double pdf(double x) const;
  [[nodiscard]] double log_likelihood(std::span<const double> xs) const;

  /// Draws one sample (component chosen by weight, then its Gaussian).
  [[nodiscard]] double sample(core::Rng& rng) const;

  /// Mode means sorted ascending.
  [[nodiscard]] std::vector<double> mode_means() const;

  /// Mean of the highest-weight component — Swiftest's initial probing rate.
  [[nodiscard]] double most_probable_mode() const;

  /// Among modes with mean strictly greater than `floor`, returns the mean of
  /// the highest-weight one; returns `floor` itself if none exists. This is
  /// the §5.1 escalation rule ("the most probable one among these larger
  /// 'modal' bandwidth values").
  [[nodiscard]] double most_probable_mode_above(double floor) const;

 private:
  std::vector<MixtureComponent> components_;
};

/// Options controlling EM fitting.
struct EmOptions {
  std::size_t max_iterations = 200;
  double tolerance = 1e-6;       // relative log-likelihood improvement to stop
  double min_stddev = 1e-3;      // variance floor to avoid singular components
  std::uint64_t seed = 42;       // k-means++ initialisation seed
  std::size_t restarts = 3;      // independent inits; best likelihood wins
};

/// Result of an EM fit.
struct EmFit {
  GaussianMixture mixture;
  double log_likelihood = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

/// Fits a k-component mixture to the sample with EM.
[[nodiscard]] EmFit fit_gmm(std::span<const double> xs, std::size_t k, const EmOptions& opts = {});

/// Fits mixtures for k in [min_k, max_k] and returns the one with the lowest
/// Bayesian information criterion. This is how Swiftest decides how many
/// "modes" a technology's bandwidth distribution has.
[[nodiscard]] EmFit fit_gmm_bic(std::span<const double> xs, std::size_t min_k, std::size_t max_k,
                                const EmOptions& opts = {});

/// fit_gmm_bic for several sample sets at once: every (set, k) fit runs as
/// one task of exec::run_tasks (exec/exec.hpp), the shared pool, at the
/// hardware concurrency, and each set's winner is then picked in ascending k
/// with a strict BIC comparison. Results are bit-identical to fitting each set
/// alone, serially. A bad k range throws std::invalid_argument before any
/// fit starts.
[[nodiscard]] std::vector<EmFit> fit_gmm_bic(std::span<const std::span<const double>> sets,
                                             std::size_t min_k, std::size_t max_k,
                                             const EmOptions& opts = {});

/// BIC = k_params * ln(n) - 2 * logL, lower is better.
[[nodiscard]] double bic(const EmFit& fit, std::size_t sample_count);

}  // namespace swiftest::stats
