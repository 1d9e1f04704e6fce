// Shared helpers for the figure/table reproduction benches.
//
// Each bench binary regenerates one table or figure from the paper: it
// prints the paper's reported values next to the reproduction's, so a reader
// can eyeball whether the *shape* (ordering, ratios, crossovers) holds.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bts/tester.hpp"
#include "core/rng.hpp"
#include "dataset/record.hpp"
#include "dataset/taxonomy.hpp"
#include "netsim/scenario.hpp"
#include "obs/hub.hpp"

namespace swiftest::benchutil {

// ------------------------------------------------------------ printing

void print_title(const std::string& title);
void print_row(const std::string& label, std::span<const double> values, int width = 9,
               int precision = 1);
void print_note(const std::string& note);

/// Renders a CDF line like the paper's distribution figures: key quantiles
/// plus mean/max.
void print_cdf_summary(const std::string& label, std::span<const double> samples);

/// ASCII sparkline of a series (for diurnal/PDF shapes).
void print_series(const std::string& label, std::span<const double> ys);

// ------------------------------------------------------------ scenarios

/// Builds a netsim scenario for a simulated user of the given technology
/// whose true access bandwidth is `truth_mbps`. Per-technology RTT, loss,
/// and cross-traffic levels follow typical wild conditions.
[[nodiscard]] netsim::ScenarioConfig scenario_for(dataset::AccessTech tech,
                                                  double truth_mbps, core::Rng& rng);

/// Draws `count` ground-truth access bandwidths for a technology from the
/// campaign generator's distribution (i.e., the Fig 16/18/19 mixtures).
[[nodiscard]] std::vector<double> draw_truths(dataset::AccessTech tech, std::size_t count,
                                              std::uint64_t seed);

// ------------------------------------------------------------ comparisons

/// One back-to-back test pair/group: the same simulated user measured by
/// every tester (fresh scenario per tester, same seed => same ground truth
/// and network conditions).
struct ComparisonOutcome {
  dataset::AccessTech tech;
  double truth_mbps = 0.0;
  std::vector<bts::BtsResult> results;  // aligned with the testers list
};

using TesterFactory = std::function<std::unique_ptr<bts::BandwidthTester>(
    dataset::AccessTech tech)>;

/// Attaches an observability hub to every scenario run_comparison builds
/// from here on (traces and metrics from all testers accumulate in it).
/// Pass nullptr to detach. Benches call this before run_comparison and
/// export the hub afterwards; by default no hub is attached and the
/// instrumentation stays on its disabled (null-branch) path.
void set_comparison_obs(obs::Hub* hub);

/// Runs `tests_per_tech` back-to-back groups for each technology.
[[nodiscard]] std::vector<ComparisonOutcome> run_comparison(
    std::span<const dataset::AccessTech> techs, std::size_t tests_per_tech,
    std::span<const TesterFactory> testers, std::uint64_t seed);

/// Standard tester set for the §5.3 comparison: FAST, FastBTS, Swiftest
/// (in that order), each constructed fresh per test.
[[nodiscard]] std::vector<TesterFactory> comparison_testers();

/// BTS-APP factory (the approximate ground truth in §5.3).
[[nodiscard]] TesterFactory flooding_factory();

/// Swiftest-only factory.
[[nodiscard]] TesterFactory swiftest_factory();

// ------------------------------------------------------------ machine output
//
// Benches stay human-first (the printf tables above), but when launched with
// `--json <path>` they also emit a small machine-readable result file
// (tools/ci.sh compares fig20's `values` exactly against
// tools/bench_baseline/BENCH_swiftest.json). Protocol:
//
//   int main(int argc, char** argv) {
//     benchutil::report_init(argc, argv, "fig20_swiftest_time");
//     benchutil::report_config("seed", "2020");
//     ...
//     benchutil::report_value("probe_mean_4g", ps.mean);
//     return benchutil::report_flush();
//   }
//
// The file holds {"name", "config", "values"}. Without --json,
// report_flush() is a no-op returning 0.

/// Scans argv for `--json <path>` and resets the report state.
void report_init(int argc, char** argv, const std::string& bench_name);

/// Records one configuration string (seed, sizes, ...) for the report header.
void report_config(const std::string& key, const std::string& value);

/// Records one named scalar result. Insertion order is preserved in the
/// output, so same code + same seed produces a byte-identical file.
void report_value(const std::string& name, double value);

/// Writes the JSON file when --json was given. Returns 0, or 1 if the file
/// could not be written (so benches can `return report_flush();`).
[[nodiscard]] int report_flush();

}  // namespace swiftest::benchutil
