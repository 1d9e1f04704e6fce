// Pieces shared by the workload loops (workloads.cpp) and the layer ledger
// (ledger.cpp): set-up, one fleet pass, one comparison pass, and the
// per-layer metrics each of them yields.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bts/tester.hpp"
#include "dataset/record.hpp"
#include "dataset/taxonomy.hpp"
#include "deploy/fleet_sim.hpp"
#include "netsim/scenario.hpp"
#include "obs/hostprof/hostprof.hpp"
#include "obs/resource.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "swiftest/model_registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User + system CPU seconds of this process, all threads.
[[nodiscard]] double cpu_seconds();

/// Linear-interpolated quantile (q in [0, 1]) of unsorted values.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Median of `reps` calls of fn(), each returning one measurement.
template <typename Fn>
[[nodiscard]] double median_of(int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(fn());
  return quantile(std::move(v), 0.5);
}

// ------------------------------------------------------------------ set-up

/// What every workload builds before its first test: the campaign the
/// clients are drawn from and the per-technology models fitted to it.
struct Setup {
  std::vector<swiftest::dataset::TestRecord> population;
  swiftest::swift::ModelRegistry registry;
  double campaign_ms = 0.0;
  double fit_ms = 0.0;
};

void build_setup(std::uint64_t seed, bool tiny, SpanLog* spans, Setup& out);

// ------------------------------------------------------------------ fleets

struct FleetShape {
  swiftest::deploy::FleetBackend backend = swiftest::deploy::FleetBackend::kPacket;
  std::size_t servers = 8;
  int days = 1;
  double tests_per_day = 0.0;
  std::size_t jobs = 2;
  std::size_t chunk = 0;
  /// Full obs::Hub with 1/sample_denominator whole-test sampling, exported.
  bool obs = false;
  std::uint64_t sample_denominator = 8;
};

/// The shape of a fleet workload ("fleet_packet", "fleet_packet_obs",
/// "fleet_analytic"), full size or smoke-test size.
[[nodiscard]] FleetShape fleet_shape(const std::string& workload, bool tiny);

/// One simulate_fleet call plus, with a hub, its artifact export.
struct FleetPass {
  double wall_s = 0.0;      // simulate_fleet plus export
  double simulate_s = 0.0;  // simulate_fleet alone
  double cpu_s = 0.0;
  std::uint64_t tests = 0;
  std::uint64_t completed = 0;  // tests that reached the health monitor
  double duration_mean_s = 0.0;
  double data_mean_mb = 0.0;
  double deviation_mean = 0.0;
  double deviation_max = 0.0;
  bool finite = true;
  std::uint64_t health_digest = 0;
  // Observability volumes (zero without a hub).
  std::uint64_t trace_retained = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t spans_retained = 0;
  std::uint64_t spans_suppressed = 0;
  std::uint64_t metrics_series = 0;
  double export_ms = 0.0;
  // Instrumented passes only: hostprof snapshot and per-chunk telemetry.
  swiftest::obs::hostprof::ProfData prof;
  std::vector<swiftest::obs::ShardTelemetry> chunks;
};

/// Runs one pass. `export_dir` non-empty writes trace.jsonl, spans.json and
/// metrics.json there (hub shapes only). `instrument` attaches the library's
/// hostprof and resource hooks; `spans` records the benchmark's own spans.
[[nodiscard]] FleetPass run_fleet_pass(const Setup& setup, const FleetShape& shape,
                                       std::uint64_t seed, const std::string& export_dir,
                                       bool instrument, SpanLog* spans);

/// deploy.*, netsim.* (packet) and obs.* metrics of an instrumented pass.
/// `ledger` selects Report::ledger_metric (reference run) over metric.
void report_fleet_layers(const FleetPass& pass, const FleetShape& shape, bool ledger,
                         Report& report);

// ------------------------------------------------------------------ comparison

inline constexpr int kTesterCount = 5;
/// Metric-name keys of the testers, in run order: FAST, FastBTS, Swiftest
/// (direct), Swiftest over the wire protocol, BTS-APP flooding.
inline constexpr const char* kTesterKeys[kTesterCount] = {
    "fast", "fastbts", "swiftest", "swiftest_wire", "flooding"};

struct BtsUser {
  swiftest::dataset::AccessTech tech = swiftest::dataset::AccessTech::k4G;
  double truth_mbps = 0.0;
  swiftest::netsim::ScenarioConfig scenario;
  std::uint64_t scenario_seed = 0;
};

/// `per_tech` users for each of 4G, 5G and WiFi 5, drawn from the campaign
/// generator's per-technology mixtures.
[[nodiscard]] std::vector<BtsUser> draw_users(std::uint64_t seed, std::size_t per_tech);

struct TesterRun {
  int tester = 0;
  double wall_ms = 0.0;
  std::uint64_t events = 0;
  swiftest::bts::BtsResult result;
  double truth_mbps = 0.0;
};

/// Every user measured back to back by every tester (or by the two
/// Swiftest testers only), one client at a time.
[[nodiscard]] std::vector<TesterRun> run_bts_pass(const std::vector<BtsUser>& users,
                                                  const swiftest::swift::ModelRegistry& registry,
                                                  SpanLog* spans, bool swiftest_only = false);

/// bts.<tester>.run_ms / .events and the FastBTS crucial-interval cost.
void report_bts_layers(const std::vector<TesterRun>& runs, bool ledger, Report& report);

// ------------------------------------------------------------------ ledger

/// Isolation drivers, the fleet-shaped replay driver, and small reference
/// runs for layers the workload itself bypasses. Fills every per-layer
/// metric the workload did not measure in place.
void run_ledger(const Options& options, const Setup& setup, SpanLog* spans,
                Report& report);

}  // namespace perfbench
