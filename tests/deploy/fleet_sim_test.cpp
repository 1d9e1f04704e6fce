#include "deploy/fleet_sim.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "dataset/generator.hpp"
#include "obs/health/report.hpp"
#include "obs/health/slo.hpp"
#include "stats/gmm.hpp"

namespace swiftest::deploy {
namespace {

const std::vector<dataset::TestRecord>& population() {
  static const auto records = dataset::generate_campaign(20'000, 2021, 13);
  return records;
}

TEST(SettledProbingRate, WalksTheModeLadder) {
  const stats::GaussianMixture model({{0.5, {100.0, 10.0}},
                                      {0.3, {300.0, 30.0}},
                                      {0.2, {500.0, 50.0}}});
  // Capacity below the first mode: the initial rate already covers it.
  EXPECT_DOUBLE_EQ(settled_probing_rate(model, 50.0), 100.0);
  // Capacity between modes: settle on the next mode above.
  EXPECT_DOUBLE_EQ(settled_probing_rate(model, 250.0), 300.0);
  // Capacity past the top mode: overshoot by 1.25x steps.
  EXPECT_DOUBLE_EQ(settled_probing_rate(model, 550.0), 500.0 * 1.25);
}

TEST(FleetSim, ProducesSkewedLowUtilization) {
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.days = 2;
  const auto result = simulate_fleet(population(), registry, cfg);
  ASSERT_GT(result.busy_window_utilization.size(), 1000u);
  EXPECT_GT(result.tests_simulated, 10'000u);
  // Fig 26 shape: low typical utilization, a much heavier tail.
  EXPECT_LT(result.summary.median, 20.0);
  EXPECT_GT(result.summary.max, 2.0 * result.summary.median);
  EXPECT_GT(result.share_leq_45, 0.95);
  EXPECT_LT(result.overload_seconds_share, 0.01);
}

TEST(FleetSim, SmallerFleetRunsHotter) {
  const swift::ModelRegistry registry;
  FleetSimConfig big;
  big.days = 1;
  big.server_count = 40;
  FleetSimConfig small = big;
  small.server_count = 10;
  const auto big_fleet = simulate_fleet(population(), registry, big);
  const auto small_fleet = simulate_fleet(population(), registry, small);
  EXPECT_GT(small_fleet.summary.mean, big_fleet.summary.mean);
}

TEST(FleetSim, MoreTestsMoreLoad) {
  const swift::ModelRegistry registry;
  FleetSimConfig quiet;
  quiet.days = 1;
  quiet.tests_per_day = 5'000;
  FleetSimConfig busy = quiet;
  busy.tests_per_day = 50'000;
  const auto q = simulate_fleet(population(), registry, quiet);
  const auto b = simulate_fleet(population(), registry, busy);
  EXPECT_GT(b.tests_simulated, 5 * q.tests_simulated);
  EXPECT_GT(b.summary.mean, q.summary.mean);
}

TEST(FleetSim, DeterministicForSeed) {
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.days = 1;
  const auto a = simulate_fleet(population(), registry, cfg);
  const auto b = simulate_fleet(population(), registry, cfg);
  EXPECT_EQ(a.tests_simulated, b.tests_simulated);
  EXPECT_DOUBLE_EQ(a.summary.mean, b.summary.mean);
}

TEST(FleetSim, PacketBackendAgreesWithAnalytic) {
  // Same seed => identical drawn workload; the packet backend replays every
  // test through a real wire client and servers in its own isolated testbed.
  // The headline sufficiency number must agree with the closed-form
  // accounting to within 10 percentage points.
  const swift::ModelRegistry registry;
  FleetSimConfig cfg;
  cfg.days = 1;
  cfg.tests_per_day = 250;
  cfg.server_count = 5;
  FleetSimConfig packet_cfg = cfg;
  packet_cfg.backend = FleetBackend::kPacket;

  const auto analytic = simulate_fleet(population(), registry, cfg);
  const auto packet = simulate_fleet(population(), registry, packet_cfg);

  ASSERT_GT(packet.tests_simulated, 100u);
  EXPECT_EQ(packet.tests_simulated, analytic.tests_simulated);
  EXPECT_GT(packet.busy_window_utilization.size(), 50u);
  EXPECT_NEAR(packet.share_leq_45, analytic.share_leq_45, 0.10);
  EXPECT_EQ(packet.overload_seconds_share, 0.0);
}

TEST(FleetSim, StreamsHealthSignalsPerDimension) {
  const swift::ModelRegistry registry;
  obs::health::HealthMonitor health;
  FleetSimConfig cfg;
  cfg.days = 1;
  cfg.health = &health;
  const auto result = simulate_fleet(population(), registry, cfg);

  const auto snap = health.snapshot();
  EXPECT_EQ(snap.tests, result.tests_simulated);
  EXPECT_EQ(snap.test_rate.events, result.tests_simulated);
  // The four §5 signals, sliced per dimension family.
  using namespace obs::health;
  for (const char* metric : {kMetricDuration, kMetricDataUsage, kMetricDeviation}) {
    const auto* all = snap.find(metric, "all");
    ASSERT_NE(all, nullptr) << metric;
    EXPECT_EQ(all->count, result.tests_simulated) << metric;
    EXPECT_NE(snap.find(metric, "tech:4g"), nullptr) << metric;
    EXPECT_NE(snap.find(metric, "isp:1"), nullptr) << metric;
    EXPECT_NE(snap.find(metric, "server:0"), nullptr) << metric;
  }
  // Egress utilization: one sample per busy (server, window).
  const auto* egress = snap.find(kMetricEgressUtil, "all");
  ASSERT_NE(egress, nullptr);
  EXPECT_EQ(egress->count, result.busy_window_utilization.size());
  EXPECT_DOUBLE_EQ(egress->max, result.summary.max);
  EXPECT_NEAR(egress->p99, result.p99, 3.0);
  // Analytic deviation proxy: ~0 when the settled rate covers the truth.
  EXPECT_LE(snap.find(kMetricDeviation, "all")->mean, 0.10);
}

TEST(FleetSim, PacketBackendStreamsRealTestOutcomes) {
  const swift::ModelRegistry registry;
  obs::health::HealthMonitor health;
  FleetSimConfig cfg;
  cfg.days = 1;
  cfg.tests_per_day = 250;
  cfg.server_count = 5;
  cfg.backend = FleetBackend::kPacket;
  cfg.health = &health;
  const auto result = simulate_fleet(population(), registry, cfg);

  const auto snap = health.snapshot();
  using namespace obs::health;
  const auto* duration = snap.find(kMetricDuration, "all");
  ASSERT_NE(duration, nullptr);
  EXPECT_EQ(duration->count, result.tests_simulated);
  // Real wire tests take on the order of a second and deviate a little.
  EXPECT_GT(duration->mean, 0.2);
  EXPECT_LT(duration->mean, 10.0);
  const auto* deviation = snap.find(kMetricDeviation, "all");
  ASSERT_NE(deviation, nullptr);
  EXPECT_GT(deviation->mean, 0.0);
  EXPECT_LT(deviation->mean, 0.5);
  // Per-server protocol counters, recorded by the packet merge.
  const auto* sessions = snap.find("server_sessions", "all");
  ASSERT_NE(sessions, nullptr);
  EXPECT_EQ(sessions->count, cfg.server_count);
}

TEST(FleetSim, SeedFleetPassesDefaultSloSpec) {
  // tools/slo_default.json is the checked-in CI gate; the seed fleet-day
  // must clear every objective in it.
  const auto specs = obs::health::load_slo_file(SWIFTEST_SLO_DEFAULT_PATH);
  ASSERT_TRUE(specs.has_value());
  ASSERT_GE(specs->size(), 5u);

  const swift::ModelRegistry registry;
  obs::health::HealthMonitor health;
  FleetSimConfig cfg;
  cfg.days = 1;
  cfg.health = &health;
  (void)simulate_fleet(population(), registry, cfg);

  const auto eval = obs::health::evaluate_slos(*specs, health.snapshot());
  for (const auto& r : eval.results) {
    EXPECT_NE(r.status, obs::health::SloStatus::kViolated)
        << r.spec.name << " [" << r.dimension << "] observed " << r.observed;
  }
  EXPECT_TRUE(eval.ok());

  // An impossible objective against the same snapshot must trip the gate.
  obs::health::SloSpec strict;
  strict.name = "impossible";
  strict.metric = obs::health::kMetricDuration;
  strict.stat = "p95";
  strict.max_value = 1e-6;
  const auto bad = obs::health::evaluate_slos({strict}, health.snapshot());
  EXPECT_EQ(bad.violations(), 1u);
}

TEST(FleetSim, HealthReportIsByteStableAcrossReruns) {
  const swift::ModelRegistry registry;
  std::string first;
  for (int run = 0; run < 2; ++run) {
    obs::health::HealthMonitor health;
    FleetSimConfig cfg;
    cfg.days = 1;
    cfg.health = &health;
    (void)simulate_fleet(population(), registry, cfg);
    std::ostringstream out;
    obs::health::write_health_json(health.snapshot(), {{"seed", "99"}},
                                   nullptr, out);
    if (run == 0) {
      first = out.str();
    } else {
      EXPECT_EQ(out.str(), first);
    }
  }
  EXPECT_GT(first.size(), 1000u);
}

TEST(FleetSim, EmptyInputsAreSafe) {
  const swift::ModelRegistry registry;
  EXPECT_EQ(simulate_fleet({}, registry).tests_simulated, 0u);
  FleetSimConfig cfg;
  cfg.server_count = 0;
  EXPECT_EQ(simulate_fleet(population(), registry, cfg).tests_simulated, 0u);
}

}  // namespace
}  // namespace swiftest::deploy
