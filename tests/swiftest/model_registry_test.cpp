#include "swiftest/model_registry.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dataset/generator.hpp"

namespace swiftest::swift {
namespace {

using dataset::AccessTech;

TEST(ModelRegistry, DefaultModelsExistForAllTechs) {
  for (AccessTech tech : dataset::kAllTechs) {
    const auto model = ModelRegistry::default_model(tech);
    EXPECT_GT(model.component_count(), 0u) << dataset::to_string(tech);
    EXPECT_GT(model.most_probable_mode(), 0.0);
  }
}

TEST(ModelRegistry, DefaultModesReflectPaperDistributions) {
  // 4G's most probable mode sits near the 22 Mbps median mass (Fig 18).
  EXPECT_NEAR(ModelRegistry::default_model(AccessTech::k4G).most_probable_mode(), 22.0,
              5.0);
  // 5G's sits at the N78 mass around 332 Mbps (Fig 19).
  EXPECT_NEAR(ModelRegistry::default_model(AccessTech::k5G).most_probable_mode(), 332.0,
              30.0);
  // WiFi 5's modes include the broadband plan values (Fig 16).
  const auto modes = ModelRegistry::default_model(AccessTech::kWiFi5).mode_means();
  ASSERT_GE(modes.size(), 3u);
  EXPECT_NEAR(modes.front(), 95.0, 15.0);
}

TEST(ModelRegistry, FallsBackToDefaultWithoutFit) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.has_fitted_model(AccessTech::k4G));
  EXPECT_GT(registry.model(AccessTech::k4G).component_count(), 0u);
}

TEST(ModelRegistry, SetModelOverridesDefault) {
  ModelRegistry registry;
  registry.set_model(AccessTech::k4G,
                     stats::GaussianMixture(std::vector<stats::MixtureComponent>{
                         {1.0, {77.0, 5.0}}}));
  EXPECT_TRUE(registry.has_fitted_model(AccessTech::k4G));
  EXPECT_DOUBLE_EQ(registry.model(AccessTech::k4G).most_probable_mode(), 77.0);
  // Other techs keep their defaults.
  EXPECT_FALSE(registry.has_fitted_model(AccessTech::k5G));
}

TEST(ModelRegistry, FitFromCampaignProducesPlausibleModels) {
  const auto records = dataset::generate_campaign(60'000, 2021, 5);
  ModelRegistry registry;
  registry.fit_from_campaign(records, 1, 5, 500);
  ASSERT_TRUE(registry.has_fitted_model(AccessTech::kWiFi5));
  ASSERT_TRUE(registry.has_fitted_model(AccessTech::k4G));
  // The fitted WiFi 5 model is multi-modal (broadband plans).
  EXPECT_GE(registry.model(AccessTech::kWiFi5).component_count(), 2u);
  // Most probable 5G mode lands in the N41/N78 mass.
  if (registry.has_fitted_model(AccessTech::k5G)) {
    const double mode = registry.model(AccessTech::k5G).most_probable_mode();
    EXPECT_GT(mode, 150.0);
    EXPECT_LT(mode, 450.0);
  }
}

TEST(ModelRegistry, FitSkipsThinTechnologies) {
  // 3G is ~0.09% of tests; at 20k records it stays below min_samples.
  const auto records = dataset::generate_campaign(20'000, 2021, 6);
  ModelRegistry registry;
  registry.fit_from_campaign(records, 1, 4, 500);
  EXPECT_FALSE(registry.has_fitted_model(AccessTech::k3G));
}

// Pins every bit of the models perfbench's set-up fits (10k-record 2021
// history, k in [1, 4], 500-sample floor). The literals were recorded from
// the serial fit; a parallel fit, or any reordering of the E-step's floating-
// point operations, must reproduce them exactly.
TEST(ModelRegistry, FitFromCampaignIsBitExact) {
  struct Component {
    double weight, mean, stddev;
  };
  struct Expected {
    AccessTech tech;
    std::vector<Component> components;
  };
  const std::vector<Expected> expected{
      {AccessTech::k4G,
       {{0x1.159e2c5f7fb1ep-1, 0x1.8cfadfe1f284ap+3, 0x1.a9ef3a6062bf2p+2},
        {0x1.6d578574aaaf7p-2, 0x1.4135621194271p+5, 0x1.4aebe626535b9p+4},
        {0x1.9db0873157b36p-4, 0x1.6504a485bc5f5p+8, 0x1.18bb53f0b351p+7}}},
      {AccessTech::kWiFi4,
       {{0x1.38858b39c871ap-1, 0x1.c32c725482fa8p+4, 0x1.7b3e9934f060fp+3},
        {0x1.2e0e7cfb77296p-2, 0x1.0b2c35cd84413p+6, 0x1.81f3e2fd35ee9p+4},
        {0x1.06631c7755dd9p-5, 0x1.73030771683afp+7, 0x1.8e84b2d1bc295p+3},
        {0x1.0068240834de7p-4, 0x1.dfa461119324fp+7, 0x1.9eeb81395b98cp+6}}},
      {AccessTech::kWiFi5,
       {{0x1.596b099047c15p-2, 0x1.51a2308466b31p+6, 0x1.3c83427068e24p+4},
        {0x1.314a7c3dd2096p-2, 0x1.744b90dca28bep+7, 0x1.631f5023c8834p+3},
        {0x1.92a11848ae4f7p-3, 0x1.1594a6a74642ap+8, 0x1.2137085c9df0dp+4},
        {0x1.57f3dc1b1e1b5p-3, 0x1.997f23cc27ea6p+8, 0x1.03a2e5a6aeb6dp+7}}},
      {AccessTech::kWiFi6,
       {{0x1.8dc15e69edee4p-2, 0x1.275af33dee877p+7, 0x1.dc17b3856310ep+5},
        {0x1.dbf85c5bb1e97p-3, 0x1.168ea8242e8d8p+8, 0x1.f8d0d874b80dfp+3},
        {0x1.f4938a4b43f38p-3, 0x1.d2d2afb3f7032p+8, 0x1.11123501b7065p+5},
        {0x1.13f15c852e468p-3, 0x1.a616fec89918cp+9, 0x1.9b6a1db61ee83p+6}}},
  };
  const auto records = dataset::generate_campaign(10'000, 2021, 2021);
  ModelRegistry registry;
  registry.fit_from_campaign(records, 1, 4, 500);
  EXPECT_FALSE(registry.has_fitted_model(AccessTech::k3G));
  EXPECT_FALSE(registry.has_fitted_model(AccessTech::k5G));
  for (const Expected& e : expected) {
    SCOPED_TRACE(dataset::to_string(e.tech));
    ASSERT_TRUE(registry.has_fitted_model(e.tech));
    const auto& got = registry.model(e.tech).components();
    ASSERT_EQ(got.size(), e.components.size());
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].weight, e.components[j].weight) << "component " << j;
      EXPECT_EQ(got[j].dist.mean, e.components[j].mean) << "component " << j;
      EXPECT_EQ(got[j].dist.stddev, e.components[j].stddev) << "component " << j;
    }
  }
}

}  // namespace
}  // namespace swiftest::swift
