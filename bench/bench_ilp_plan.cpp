// §5.2 / §5.3 infrastructure cost: the ILP-planned Swiftest deployment vs
// BTS-APP's legacy flat allocation.
// Paper: 20 x 100 Mbps budget servers serve the same ~10K tests/day that
// BTS-APP covers with 50 x 1 Gbps servers — a ~15x backend expense cut.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "dataset/generator.hpp"
#include "deploy/catalog.hpp"
#include "deploy/placement.hpp"
#include "deploy/planner.hpp"
#include "deploy/workload.hpp"

int main() {
  using namespace swiftest;
  namespace bu = benchutil;

  const auto records = dataset::generate_campaign(100'000, 2021, 1052);

  // Swiftest workload: ~1.2 s tests.
  deploy::WorkloadParams swift_params;
  swift_params.tests_per_day = 10'000;
  swift_params.test_duration_s = 1.2;
  const auto swift_demand = deploy::estimate_workload(records, swift_params);

  bu::print_title("Section 5.2: workload estimation and server purchase plan");
  std::printf("  peak arrivals: %.2f tests/s; mean concurrency %.2f; sized for %g\n",
              swift_demand.peak_arrivals_per_second, swift_demand.mean_concurrency,
              swift_demand.sized_concurrency);
  std::printf("  per-test bandwidth (P95): %.0f Mbps -> demand %.0f Mbps\n",
              swift_demand.per_test_mbps, swift_demand.demand_mbps);

  // ILP plan over the OneProvider-like catalog, restricted to budget boxes
  // (100 Mbps class) plus everything else the solver may prefer.
  const auto catalog = deploy::synthetic_catalog(2022, 336);
  // Host wall time of the solve, printed for reading only: it is not a
  // reproduced paper value and is never gated.
  const auto solve_start = std::chrono::steady_clock::now();
  const auto plan = deploy::plan_purchase(catalog, swift_demand.demand_mbps);
  const double solve_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - solve_start)
                              .count();
  std::printf("\n  Swiftest ILP plan: %zu servers, %.0f Mbps capacity, $%.0f/month"
              " (%zu B&B nodes, %.2f ms)\n",
              plan.total_servers, plan.total_bandwidth_mbps, plan.total_cost_usd,
              plan.nodes_explored, solve_ms);
  std::printf("  plan detail:");
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    if (plan.counts[i] > 0) {
      std::printf(" %dx(%.0fMbps @$%.0f %s)", plan.counts[i], catalog[i].bandwidth_mbps,
                  catalog[i].price_per_month_usd, catalog[i].provider.c_str());
    }
  }
  std::printf("\n");

  // Legacy BTS-APP allocation for the same workload: flat over-provisioning.
  const auto legacy = deploy::legacy_plan(deploy::legacy_gbps_server(),
                                          swift_demand.demand_mbps);
  std::printf("\n  BTS-APP legacy allocation: %zu x 1 Gbps servers, $%.0f/month\n",
              legacy.total_servers, legacy.total_cost_usd);
  std::printf("  expense ratio (legacy / Swiftest): %.1fx (paper ~15x)\n",
              legacy.total_cost_usd / plan.total_cost_usd);

  // IXP placement of the purchased servers.
  const auto placement = deploy::place_servers(plan.total_servers);
  const auto domains = deploy::ixp_domains();
  std::printf("\n  placement near core IXPs:");
  for (std::size_t i = 0; i < domains.size(); ++i) {
    std::printf(" %s:%zu", domains[i].city.c_str(), placement.servers_per_domain[i]);
  }
  std::printf("  (imbalance %.2f)\n", deploy::placement_imbalance(placement));
  return 0;
}
