#include "bench_util.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>

#include "bts/fast.hpp"
#include "bts/fastbts.hpp"
#include "bts/flooding.hpp"
#include "dataset/generator.hpp"
#include "obs/json.hpp"
#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "swiftest/client.hpp"

namespace swiftest::benchutil {

void print_title(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void print_row(const std::string& label, std::span<const double> values, int width,
               int precision) {
  std::printf("%-28s", label.c_str());
  for (double v : values) std::printf("%*.*f", width, precision, v);
  std::printf("\n");
}

void print_note(const std::string& note) { std::printf("  %s\n", note.c_str()); }

void print_cdf_summary(const std::string& label, std::span<const double> samples) {
  const auto s = stats::summarize(samples);
  std::printf("%-24s n=%-7zu mean=%-8.1f median=%-8.1f p25=%-8.1f p75=%-8.1f max=%.1f\n",
              label.c_str(), s.count, s.mean, s.median, s.p25, s.p75, s.max);
}

void print_series(const std::string& label, std::span<const double> ys) {
  std::printf("%s\n", label.c_str());
  std::printf("%s", stats::ascii_chart(ys, 8).c_str());
}

netsim::ScenarioConfig scenario_for(dataset::AccessTech tech, double truth_mbps,
                                    core::Rng& rng) {
  netsim::ScenarioConfig cfg;
  cfg.access_rate = core::Bandwidth::mbps(truth_mbps);
  switch (tech) {
    case dataset::AccessTech::k3G:
      cfg.access_delay = core::from_seconds(rng.uniform(0.040, 0.080));
      cfg.random_loss = 3e-4;
      break;
    case dataset::AccessTech::k4G:
      cfg.access_delay = core::from_seconds(rng.uniform(0.018, 0.035));
      cfg.random_loss = 1e-4;
      break;
    case dataset::AccessTech::k5G:
      cfg.access_delay = core::from_seconds(rng.uniform(0.008, 0.018));
      cfg.random_loss = 5e-5;
      break;
    default:  // WiFi
      cfg.access_delay = core::from_seconds(rng.uniform(0.002, 0.008));
      cfg.random_loss = 5e-5;
      break;
  }
  cfg.enable_cross_traffic = true;
  cfg.cross_traffic.peak_rate = core::Bandwidth::mbps(truth_mbps * rng.uniform(0.08, 0.25));
  cfg.cross_traffic.mean_on_seconds = 0.5;
  cfg.cross_traffic.mean_off_seconds = 1.2;
  return cfg;
}

std::vector<double> draw_truths(dataset::AccessTech tech, std::size_t count,
                                std::uint64_t seed) {
  // Draw from the campaign so truths follow the paper's distributions.
  dataset::CampaignConfig cfg;
  cfg.test_count = 1;  // unused; we call the generator per record below
  cfg.seed = seed;
  dataset::CampaignGenerator generator(cfg);
  std::vector<double> truths;
  truths.reserve(count);
  while (truths.size() < count) {
    const auto rec = generator.next();
    if (rec.tech == tech) truths.push_back(rec.bandwidth_mbps);
  }
  return truths;
}

namespace {
obs::Hub* g_comparison_obs = nullptr;
}  // namespace

void set_comparison_obs(obs::Hub* hub) { g_comparison_obs = hub; }

std::vector<ComparisonOutcome> run_comparison(std::span<const dataset::AccessTech> techs,
                                              std::size_t tests_per_tech,
                                              std::span<const TesterFactory> testers,
                                              std::uint64_t seed) {
  std::vector<ComparisonOutcome> outcomes;
  core::Rng rng(seed);
  for (const auto tech : techs) {
    const auto truths = draw_truths(tech, tests_per_tech, rng.next_u64());
    for (double truth : truths) {
      ComparisonOutcome outcome;
      outcome.tech = tech;
      outcome.truth_mbps = truth;
      const std::uint64_t scenario_seed = rng.next_u64();
      core::Rng cfg_rng(rng.next_u64());
      const auto scenario_cfg = scenario_for(tech, truth, cfg_rng);
      std::uint64_t tester_index = 0;
      for (const auto& factory : testers) {
        // Back-to-back runs share the ground truth and conditions but not
        // the exact noise realization: sequential tests in the wild see
        // different cross-traffic, which is what Fig 22's deviations reflect.
        netsim::Scenario scenario(scenario_cfg, scenario_seed + tester_index++);
        scenario.scheduler().set_obs(g_comparison_obs);
        scenario.start_cross_traffic();
        auto tester = factory(tech);
        outcome.results.push_back(tester->run(scenario));
      }
      outcomes.push_back(std::move(outcome));
    }
  }
  return outcomes;
}

std::vector<TesterFactory> comparison_testers() {
  std::vector<TesterFactory> testers;
  testers.push_back([](dataset::AccessTech) -> std::unique_ptr<bts::BandwidthTester> {
    return std::make_unique<bts::FastBts>();
  });
  testers.push_back([](dataset::AccessTech) -> std::unique_ptr<bts::BandwidthTester> {
    return std::make_unique<bts::FastBtsCi>();
  });
  testers.push_back(swiftest_factory());
  return testers;
}

TesterFactory flooding_factory() {
  return [](dataset::AccessTech) -> std::unique_ptr<bts::BandwidthTester> {
    return std::make_unique<bts::FloodingBts>();
  };
}

namespace {

struct ReportState {
  std::string bench_name;
  std::string json_path;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::pair<std::string, double>> values;
};
ReportState g_report;

}  // namespace

void report_init(int argc, char** argv, const std::string& bench_name) {
  g_report = {};
  g_report.bench_name = bench_name;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") g_report.json_path = argv[i + 1];
  }
}

void report_config(const std::string& key, const std::string& value) {
  g_report.config.emplace_back(key, value);
}

void report_value(const std::string& name, double value) {
  g_report.values.emplace_back(name, value);
}

int report_flush() {
  if (g_report.json_path.empty()) return 0;
  std::string out;
  out += "{\n  \"name\": ";
  obs::append_json_string(out, g_report.bench_name);
  out += ",\n  \"config\": {";
  for (std::size_t i = 0; i < g_report.config.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ");
    obs::append_json_string(out, g_report.config[i].first);
    out += ": ";
    obs::append_json_string(out, g_report.config[i].second);
  }
  out += g_report.config.empty() ? "},\n" : "\n  },\n";
  out += "  \"values\": {";
  for (std::size_t i = 0; i < g_report.values.size(); ++i) {
    out += (i == 0 ? "\n    " : ",\n    ");
    obs::append_json_string(out, g_report.values[i].first);
    out += ": ";
    obs::append_double(out, g_report.values[i].second);
  }
  out += g_report.values.empty() ? "}\n}\n" : "\n  }\n}\n";
  std::ofstream file(g_report.json_path, std::ios::binary | std::ios::trunc);
  file << out;
  file.flush();
  if (!file) {
    std::fprintf(stderr, "cannot write bench report: %s\n",
                 g_report.json_path.c_str());
    return 1;
  }
  std::printf("  bench report: %s\n", g_report.json_path.c_str());
  return 0;
}

TesterFactory swiftest_factory() {
  return [](dataset::AccessTech tech) -> std::unique_ptr<bts::BandwidthTester> {
    static const swift::ModelRegistry registry;
    swift::SwiftestConfig cfg;
    cfg.tech = tech;
    return std::make_unique<swift::SwiftestClient>(cfg, registry);
  };
}

}  // namespace swiftest::benchutil
