#include "swiftest/model_registry.hpp"

#include <vector>

namespace swiftest::swift {

using dataset::AccessTech;
using stats::GaussianMixture;
using stats::MixtureComponent;

GaussianMixture ModelRegistry::default_model(AccessTech tech) {
  switch (tech) {
    case AccessTech::k3G:
      return GaussianMixture(std::vector<MixtureComponent>{{1.0, {3.0, 2.0}}});
    case AccessTech::k4G:
      // Fig 18: a heavy low mode near the 22 Mbps median, mid modes, and the
      // LTE-Advanced hump around 400 Mbps.
      return GaussianMixture({{0.45, {22.0, 12.0}},
                              {0.30, {60.0, 25.0}},
                              {0.15, {150.0, 50.0}},
                              {0.10, {403.0, 85.0}}});
    case AccessTech::k5G:
      // Fig 19: the thin refarmed bands near 110 and the N41/N78 mass.
      return GaussianMixture({{0.13, {108.0, 30.0}},
                              {0.32, {305.0, 90.0}},
                              {0.55, {332.0, 100.0}}});
    case AccessTech::kWiFi4:
      return GaussianMixture({{0.55, {38.0, 15.0}},
                              {0.20, {90.0, 22.0}},
                              {0.15, {190.0, 60.0}},
                              {0.10, {300.0, 80.0}}});
    case AccessTech::kWiFi5:
      // Fig 16: modes at the 100x broadband plan values.
      return GaussianMixture({{0.35, {95.0, 25.0}},
                              {0.30, {185.0, 50.0}},
                              {0.20, {290.0, 70.0}},
                              {0.15, {460.0, 110.0}}});
    case AccessTech::kWiFi6:
      return GaussianMixture({{0.15, {95.0, 25.0}},
                              {0.25, {190.0, 50.0}},
                              {0.30, {290.0, 70.0}},
                              {0.20, {470.0, 110.0}},
                              {0.10, {800.0, 180.0}}});
  }
  return GaussianMixture(std::vector<MixtureComponent>{{1.0, {100.0, 50.0}}});
}

const GaussianMixture& ModelRegistry::model(AccessTech tech) const {
  static const std::map<AccessTech, GaussianMixture>* defaults = [] {
    auto* m = new std::map<AccessTech, GaussianMixture>;
    for (AccessTech t : dataset::kAllTechs) m->emplace(t, default_model(t));
    return m;
  }();
  const auto it = fitted_.find(tech);
  if (it != fitted_.end()) return it->second;
  return defaults->at(tech);
}

void ModelRegistry::set_model(AccessTech tech, GaussianMixture model) {
  fitted_.insert_or_assign(tech, std::move(model));
}

bool ModelRegistry::has_fitted_model(AccessTech tech) const {
  return fitted_.find(tech) != fitted_.end();
}

void ModelRegistry::fit_from_campaign(std::span<const dataset::TestRecord> records,
                                      std::size_t min_k, std::size_t max_k,
                                      std::size_t min_samples) {
  std::map<AccessTech, std::vector<double>> by_tech;
  for (const auto& r : records) by_tech[r.tech].push_back(r.bandwidth_mbps);
  std::vector<AccessTech> techs;
  std::vector<std::span<const double>> sets;
  for (const auto& [tech, samples] : by_tech) {
    if (samples.size() < min_samples) continue;
    techs.push_back(tech);
    sets.emplace_back(samples);
  }
  // One task list for every (technology, k) fit; see stats::fit_gmm_bic.
  auto fits = stats::fit_gmm_bic(sets, min_k, max_k);
  for (std::size_t i = 0; i < techs.size(); ++i) set_model(techs[i], std::move(fits[i].mixture));
}

}  // namespace swiftest::swift
