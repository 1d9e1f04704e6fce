#include "stats/gaussian.hpp"

#include <cmath>
#include <numbers>

namespace swiftest::stats {

double Gaussian::pdf(double x) const {
  const double z = (x - mean) / stddev;
  return std::exp(-0.5 * z * z) / (stddev * std::sqrt(2.0 * std::numbers::pi));
}

// run_em_once in gmm.cpp writes this expression out with the logs hoisted;
// a change to its operation order must be made there too, or the fitted
// models change bits.
double Gaussian::log_pdf(double x) const {
  const double z = (x - mean) / stddev;
  return -0.5 * z * z - std::log(stddev) - 0.5 * std::log(2.0 * std::numbers::pi);
}

double Gaussian::cdf(double x) const {
  return 0.5 * (1.0 + std::erf((x - mean) / (stddev * std::numbers::sqrt2)));
}

}  // namespace swiftest::stats
