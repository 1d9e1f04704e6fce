// Figure 26: bandwidth utilization of Swiftest's servers over a simulated
// month of the §5.3 deployment (20 x 100 Mbps servers, ~10K tests/day).
// Paper: median 4.8%, mean 8.2%, P99 45%, P99.9 73.2%, max 135.3% (brief
// over-assignment absorbed by queueing); utilization <= 45% in 99% of cases.
//
// Implemented by deploy/fleet_sim.hpp: Poisson arrivals on the diurnal
// profile, model-driven per-test probing rates split across the client's
// IXP domain servers, per-(server, 10 s window) utilization.
#include <cstdio>

#include "bench_util.hpp"
#include "dataset/generator.hpp"
#include "deploy/fleet_sim.hpp"

int main(int argc, char** argv) {
  using namespace swiftest;
  namespace bu = benchutil;

  bu::report_init(argc, argv, "fig26_utilization");
  bu::report_config("servers", "20x100Mbps");
  bu::report_config("tests_per_day", "10000");
  bu::report_config("days", "30");
  bu::report_config("seed", "1026");

  const auto population = dataset::generate_campaign(100'000, 2021, 1026);
  const swift::ModelRegistry registry;

  deploy::FleetSimConfig cfg;
  cfg.server_count = 20;
  cfg.server_uplink_mbps = 100.0;
  cfg.tests_per_day = 10'000.0;
  cfg.days = 30;
  const auto result = deploy::simulate_fleet(population, registry, cfg);

  bu::print_title("Figure 26: Swiftest server utilization over one month (%)");
  std::printf("  fleet: %zu x %.0f Mbps; %.0f tests/day; %d days; %llu tests;"
              " %zu busy windows (%d s)\n",
              cfg.server_count, cfg.server_uplink_mbps, cfg.tests_per_day, cfg.days,
              static_cast<unsigned long long>(result.tests_simulated),
              result.busy_window_utilization.size(), deploy::kUtilizationWindowSeconds);
  std::printf("  median=%.1f%% mean=%.1f%% P99=%.1f%% P99.9=%.1f%% max=%.1f%%\n",
              result.summary.median, result.summary.mean, result.p99, result.p999,
              result.summary.max);
  std::printf("  share of busy windows <= 45%% utilization: %.1f%%;"
              " fleet-overloaded seconds: %.3f%%\n",
              100.0 * result.share_leq_45, 100.0 * result.overload_seconds_share);
  bu::print_note("paper: median 4.8, mean 8.2, P99 45.0, P999 73.2, max 135.3;");
  bu::print_note("       utilization <= 45% in 99% of cases");
  bu::report_value("util_median", result.summary.median);
  bu::report_value("util_mean", result.summary.mean);
  bu::report_value("util_p99", result.p99);
  bu::report_value("util_p999", result.p999);
  bu::report_value("util_max", result.summary.max);
  bu::report_value("share_leq_45", result.share_leq_45);
  return bu::report_flush();
}
