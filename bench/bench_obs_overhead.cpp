// Observability overhead: what full vs sampled instrumentation costs a
// packet fleet-day (DESIGN.md §12). Three back-to-back runs of the same
// workload — no hub, full retention, and 1/8 deterministic sampling —
// report wall-clock side by side with the deterministic record counts, so
// the baseline gate pins the *volume* sampling removes (retained and dropped
// trace events, spans, suppressed server sessions) while the host-dependent
// timings are compared only between comparable hosts.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "dataset/generator.hpp"
#include "deploy/fleet_sim.hpp"
#include "obs/hub.hpp"

namespace {

using namespace swiftest;

constexpr std::uint64_t kSeed = 7;

struct ObsOutcome {
  double seconds = 0.0;
  std::uint64_t tests = 0;
  std::uint64_t trace_retained = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t spans = 0;
  std::uint64_t span_suppressed = 0;
  std::uint64_t tests_sampled = 0;
};

enum class Mode { kNone, kFull, kSampled };

ObsOutcome run_fleet_day(std::span<const dataset::TestRecord> population,
                         const swift::ModelRegistry& registry, Mode mode) {
  deploy::FleetSimConfig cfg;
  cfg.backend = deploy::FleetBackend::kPacket;
  cfg.server_count = 5;
  cfg.days = 1;
  cfg.tests_per_day = 150.0;
  cfg.seed = kSeed;
  cfg.chunk = 64;
  obs::Hub hub;
  if (mode != Mode::kNone) cfg.obs = &hub;
  if (mode == Mode::kSampled) cfg.sample.set_denominator(8);

  const auto start = std::chrono::steady_clock::now();
  const deploy::FleetSimResult result =
      deploy::simulate_fleet(population, registry, cfg);
  const auto end = std::chrono::steady_clock::now();

  ObsOutcome outcome;
  outcome.seconds = std::chrono::duration<double>(end - start).count();
  outcome.tests = result.tests_simulated;
  if (mode != Mode::kNone) {
    outcome.trace_retained = hub.tracer.size();
    outcome.trace_dropped = hub.tracer.dropped();
    outcome.spans = hub.spans.size();
    outcome.span_suppressed = hub.spans.suppressed();
    const auto counters = hub.metrics.snapshot().counters;
    if (const auto it = counters.find("fleet.tests_sampled");
        it != counters.end()) {
      outcome.tests_sampled = it->second;
    }
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::report_init(argc, argv, "obs_overhead");
  benchutil::report_config("backend", "packet");
  benchutil::report_config("seed", std::to_string(kSeed));
  benchutil::report_config("sample", "1/8");
  benchutil::report_config("hw_threads",
                           std::to_string(std::thread::hardware_concurrency()));

  const auto population = dataset::generate_campaign(10'000, 2021, 3);
  static const swift::ModelRegistry registry;

  benchutil::print_title("Observability overhead: packet fleet-day, none vs full vs 1/8");
  const ObsOutcome none = run_fleet_day(population, registry, Mode::kNone);
  const ObsOutcome full = run_fleet_day(population, registry, Mode::kFull);
  const ObsOutcome sampled = run_fleet_day(population, registry, Mode::kSampled);

  std::printf("  %-9s %-9s %-11s %-11s %-8s %s\n", "mode", "seconds", "trace_kept",
              "trace_drop", "spans", "suppressed");
  std::printf("  %-9s %-9.3f %-11s %-11s %-8s %s\n", "none", none.seconds, "-", "-",
              "-", "-");
  std::printf("  %-9s %-9.3f %-11llu %-11llu %-8llu %llu\n", "full", full.seconds,
              static_cast<unsigned long long>(full.trace_retained),
              static_cast<unsigned long long>(full.trace_dropped),
              static_cast<unsigned long long>(full.spans),
              static_cast<unsigned long long>(full.span_suppressed));
  std::printf("  %-9s %-9.3f %-11llu %-11llu %-8llu %llu\n", "1/8", sampled.seconds,
              static_cast<unsigned long long>(sampled.trace_retained),
              static_cast<unsigned long long>(sampled.trace_dropped),
              static_cast<unsigned long long>(sampled.spans),
              static_cast<unsigned long long>(sampled.span_suppressed));
  if (none.seconds > 0.0) {
    benchutil::print_note("full-obs overhead: " +
                          std::to_string((full.seconds / none.seconds - 1.0) * 100.0) +
                          "% | sampled: " +
                          std::to_string((sampled.seconds / none.seconds - 1.0) * 100.0) +
                          "%");
  }

  // Deterministic volumes: gated at 5% by the baseline compare, so a change
  // to what instrumentation emits (or what sampling suppresses) is visible.
  benchutil::report_value("tests_simulated", static_cast<double>(none.tests));
  benchutil::report_value("full_trace_retained", static_cast<double>(full.trace_retained));
  benchutil::report_value("full_trace_dropped", static_cast<double>(full.trace_dropped));
  benchutil::report_value("full_spans", static_cast<double>(full.spans));
  benchutil::report_value("sampled_trace_retained",
                          static_cast<double>(sampled.trace_retained));
  benchutil::report_value("sampled_trace_dropped",
                          static_cast<double>(sampled.trace_dropped));
  benchutil::report_value("sampled_spans", static_cast<double>(sampled.spans));
  benchutil::report_value("sampled_span_suppressed",
                          static_cast<double>(sampled.span_suppressed));
  benchutil::report_value("sampled_tests", static_cast<double>(sampled.tests_sampled));
  // Host wall-clock (skipped between non-comparable hosts).
  benchutil::report_value("wall_s_none", none.seconds);
  benchutil::report_value("wall_s_full", full.seconds);
  benchutil::report_value("wall_s_sampled", sampled.seconds);
  return benchutil::report_flush();
}
