#include "stats/gmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "exec/exec.hpp"

namespace swiftest::stats {
namespace {

// log(sum(exp(xs))) without overflow.
double log_sum_exp(std::span<const double> xs) {
  const double m = *std::max_element(xs.begin(), xs.end());
  if (!std::isfinite(m)) return m;
  double sum = 0.0;
  for (double x : xs) sum += std::exp(x - m);
  return m + std::log(sum);
}

// k-means++ seeding followed by a few Lloyd iterations; returns k centers.
std::vector<double> kmeans_centers(std::span<const double> xs, std::size_t k, core::Rng& rng) {
  std::vector<double> centers;
  centers.reserve(k);
  centers.push_back(xs[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(xs.size()) - 1))]);
  std::vector<double> d2(xs.size());
  while (centers.size() < k) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double best = std::numeric_limits<double>::max();
      for (double c : centers) best = std::min(best, (xs[i] - c) * (xs[i] - c));
      d2[i] = best;
    }
    const std::size_t idx = rng.weighted_index(d2);
    centers.push_back(xs[idx]);
  }
  // A few Lloyd iterations to settle the seeds.
  std::vector<double> sums(k), counts(k);
  for (int iter = 0; iter < 10; ++iter) {
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0.0);
    for (double x : xs) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::max();
      for (std::size_t j = 0; j < k; ++j) {
        const double d = (x - centers[j]) * (x - centers[j]);
        if (d < best_d) {
          best_d = d;
          best = j;
        }
      }
      sums[best] += x;
      counts[best] += 1.0;
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (counts[j] > 0) centers[j] = sums[j] / counts[j];
    }
  }
  std::sort(centers.begin(), centers.end());
  return centers;
}

EmFit run_em_once(std::span<const double> xs, std::size_t k, const EmOptions& opts,
                  core::Rng& rng) {
  const std::size_t n = xs.size();
  const auto centers = kmeans_centers(xs, k, rng);

  // Initial parameters: equal weights, k-means centers, global spread.
  double global_sd = 0.0;
  {
    double m = 0.0;
    for (double x : xs) m += x;
    m /= static_cast<double>(n);
    for (double x : xs) global_sd += (x - m) * (x - m);
    global_sd = std::sqrt(global_sd / static_cast<double>(n));
    if (global_sd < opts.min_stddev) global_sd = opts.min_stddev;
  }
  std::vector<MixtureComponent> comps(k);
  for (std::size_t j = 0; j < k; ++j) {
    comps[j].weight = 1.0 / static_cast<double>(k);
    comps[j].dist = {centers[j], global_sd / static_cast<double>(k)};
    if (comps[j].dist.stddev < opts.min_stddev) comps[j].dist.stddev = opts.min_stddev;
  }

  std::vector<double> log_resp(k);               // per-sample log responsibilities
  std::vector<double> resp_sum(k), mu_sum(k), var_sum(k);
  // Per-component logs, computed once per pass rather than once per sample.
  // The density below is Gaussian::log_pdf written out in its exact
  // operation order, so the hoist changes no bit of the fit.
  std::vector<double> log_w(k), log_sd(k);
  const double log_norm = 0.5 * std::log(2.0 * std::numbers::pi);
  const auto refresh_logs = [&] {
    for (std::size_t j = 0; j < k; ++j) {
      log_w[j] = std::log(comps[j].weight);
      log_sd[j] = std::log(comps[j].dist.stddev);
    }
  };
  const auto log_joint = [&](double x, std::size_t j) {
    const double z = (x - comps[j].dist.mean) / comps[j].dist.stddev;
    return log_w[j] + (-0.5 * z * z - log_sd[j] - log_norm);
  };
  double prev_ll = -std::numeric_limits<double>::infinity();
  EmFit fit;

  for (std::size_t iter = 1; iter <= opts.max_iterations; ++iter) {
    std::fill(resp_sum.begin(), resp_sum.end(), 0.0);
    std::fill(mu_sum.begin(), mu_sum.end(), 0.0);
    std::fill(var_sum.begin(), var_sum.end(), 0.0);
    double ll = 0.0;

    // E step (and accumulation for the M step in one pass).
    refresh_logs();
    for (double x : xs) {
      for (std::size_t j = 0; j < k; ++j) log_resp[j] = log_joint(x, j);
      const double lse = log_sum_exp(log_resp);
      ll += lse;
      for (std::size_t j = 0; j < k; ++j) {
        const double r = std::exp(log_resp[j] - lse);
        resp_sum[j] += r;
        mu_sum[j] += r * x;
      }
    }

    // M step: means and weights.
    for (std::size_t j = 0; j < k; ++j) {
      if (resp_sum[j] < 1e-12) {
        // Dead component: re-seed on a random sample to keep k alive.
        comps[j].dist.mean = xs[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
        comps[j].weight = 1.0 / static_cast<double>(n);
        continue;
      }
      comps[j].dist.mean = mu_sum[j] / resp_sum[j];
      comps[j].weight = resp_sum[j] / static_cast<double>(n);
    }
    // Second pass for variances against the updated means.
    refresh_logs();
    for (double x : xs) {
      for (std::size_t j = 0; j < k; ++j) log_resp[j] = log_joint(x, j);
      const double lse = log_sum_exp(log_resp);
      for (std::size_t j = 0; j < k; ++j) {
        const double r = std::exp(log_resp[j] - lse);
        const double d = x - comps[j].dist.mean;
        var_sum[j] += r * d * d;
      }
    }
    for (std::size_t j = 0; j < k; ++j) {
      if (resp_sum[j] < 1e-12) continue;
      comps[j].dist.stddev = std::max(opts.min_stddev, std::sqrt(var_sum[j] / resp_sum[j]));
    }

    fit.iterations = iter;
    fit.log_likelihood = ll;
    if (std::isfinite(prev_ll) &&
        std::abs(ll - prev_ll) <= opts.tolerance * (std::abs(prev_ll) + 1.0)) {
      fit.converged = true;
      break;
    }
    prev_ll = ll;
  }

  std::sort(comps.begin(), comps.end(),
            [](const MixtureComponent& a, const MixtureComponent& b) {
              return a.dist.mean < b.dist.mean;
            });
  fit.mixture = GaussianMixture(std::move(comps));
  return fit;
}

}  // namespace

GaussianMixture::GaussianMixture(std::vector<MixtureComponent> components)
    : components_(std::move(components)) {
  double total = 0.0;
  for (const auto& c : components_) {
    if (c.weight < 0.0) throw std::invalid_argument("GaussianMixture: negative weight");
    if (c.dist.stddev <= 0.0) throw std::invalid_argument("GaussianMixture: non-positive stddev");
    total += c.weight;
  }
  if (total <= 0.0) throw std::invalid_argument("GaussianMixture: zero total weight");
  for (auto& c : components_) c.weight /= total;
}

double GaussianMixture::pdf(double x) const {
  double p = 0.0;
  for (const auto& c : components_) p += c.weight * c.dist.pdf(x);
  return p;
}

double GaussianMixture::log_likelihood(std::span<const double> xs) const {
  double ll = 0.0;
  for (double x : xs) ll += std::log(std::max(pdf(x), 1e-300));
  return ll;
}

double GaussianMixture::sample(core::Rng& rng) const {
  std::vector<double> weights;
  weights.reserve(components_.size());
  for (const auto& c : components_) weights.push_back(c.weight);
  const auto& chosen = components_[rng.weighted_index(weights)];
  return rng.normal(chosen.dist.mean, chosen.dist.stddev);
}

std::vector<double> GaussianMixture::mode_means() const {
  std::vector<double> means;
  means.reserve(components_.size());
  for (const auto& c : components_) means.push_back(c.dist.mean);
  std::sort(means.begin(), means.end());
  return means;
}

double GaussianMixture::most_probable_mode() const {
  if (components_.empty()) return 0.0;
  const auto it = std::max_element(components_.begin(), components_.end(),
                                   [](const MixtureComponent& a, const MixtureComponent& b) {
                                     return a.weight < b.weight;
                                   });
  return it->dist.mean;
}

double GaussianMixture::most_probable_mode_above(double floor) const {
  double best_mean = floor;
  double best_weight = -1.0;
  for (const auto& c : components_) {
    if (c.dist.mean > floor && c.weight > best_weight) {
      best_weight = c.weight;
      best_mean = c.dist.mean;
    }
  }
  return best_mean;
}

EmFit fit_gmm(std::span<const double> xs, std::size_t k, const EmOptions& opts) {
  if (k == 0) throw std::invalid_argument("fit_gmm: k must be > 0");
  if (xs.size() < k) throw std::invalid_argument("fit_gmm: fewer samples than components");
  core::Rng rng(opts.seed);
  EmFit best;
  best.log_likelihood = -std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < std::max<std::size_t>(1, opts.restarts); ++r) {
    EmFit fit = run_em_once(xs, k, opts, rng);
    if (fit.log_likelihood > best.log_likelihood) best = std::move(fit);
  }
  return best;
}

double bic(const EmFit& fit, std::size_t sample_count) {
  // Each component has weight, mean, stddev; weights sum to 1 (one constraint).
  const double k_params =
      static_cast<double>(fit.mixture.component_count() * 3 - 1);
  return k_params * std::log(static_cast<double>(sample_count)) - 2.0 * fit.log_likelihood;
}

std::vector<EmFit> fit_gmm_bic(std::span<const std::span<const double>> sets,
                               std::size_t min_k, std::size_t max_k, const EmOptions& opts) {
  if (min_k == 0 || max_k < min_k) throw std::invalid_argument("fit_gmm_bic: bad k range");
  // No set can fit more components than it has samples, which bounds the
  // slot table even when max_k is not.
  std::size_t largest = 0;
  for (const auto xs : sets) largest = std::max(largest, xs.size());
  const std::size_t top_k = std::min(max_k, largest);
  const std::size_t k_count = top_k >= min_k ? top_k - min_k + 1 : 0;

  // Every (set, k) fit is an independent task — fit_gmm seeds from
  // opts.seed alone — writing its own slot, so no schedule reaches a result.
  std::vector<EmFit> slots(sets.size() * k_count);
  exec::run_tasks(slots.size(), exec::resolve_jobs(0), [&](std::size_t task) {
    const auto xs = sets[task / k_count];
    const std::size_t k = min_k + task % k_count;
    if (k <= xs.size()) slots[task] = fit_gmm(xs, k, opts);
  });

  std::vector<EmFit> best(sets.size());
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const auto xs = sets[s];
    double best_bic = std::numeric_limits<double>::infinity();
    for (std::size_t k = min_k; k <= max_k && k <= xs.size(); ++k) {
      EmFit& fit = slots[s * k_count + (k - min_k)];
      const double b = bic(fit, xs.size());
      if (b < best_bic) {
        best_bic = b;
        best[s] = std::move(fit);
      }
    }
  }
  return best;
}

EmFit fit_gmm_bic(std::span<const double> xs, std::size_t min_k, std::size_t max_k,
                  const EmOptions& opts) {
  const std::span<const double> sets[] = {xs};
  return std::move(fit_gmm_bic(sets, min_k, max_k, opts).front());
}

}  // namespace swiftest::stats
