#include "deploy/fleet_sim.hpp"

#include "deploy/fleet_run.hpp"

namespace swiftest::deploy {

double settled_probing_rate(const stats::GaussianMixture& model, double truth_mbps) {
  double rate = std::max(1.0, model.most_probable_mode());
  for (int i = 0; i < 16 && rate < truth_mbps; ++i) {
    const double next = model.most_probable_mode_above(rate);
    rate = next > rate ? next : rate * 1.25;
  }
  return rate;
}

namespace detail {

/// Tests per execution chunk when FleetSimConfig::chunk is 0.
constexpr std::size_t kDefaultChunkSize = 256;

FleetRun::FleetRun(std::span<const dataset::TestRecord> population,
                   const swift::ModelRegistry& registry, const FleetSimConfig& config,
                   bool obs_merge)
    : config(config),
      host_tl(config.hostprof != nullptr ? &config.hostprof->main() : nullptr),
      chunk_size(config.chunk == 0 ? kDefaultChunkSize : config.chunk),
      jobs(exec::resolve_jobs(config.jobs)),
      draw_(population, registry, config),
      dims_(config.server_count) {
  if (config.health != nullptr) fold.emplace(*config.health, jobs, dims_.keys());
  if (obs_merge) trace.emplace(*config.obs);
}

/// Folds one chunk's observability into config.obs, one host-time phase per
/// component, in chunk order: metrics fold over the per-test snapshots, and
/// the trace stream takes the chunk's events and spans and emits those that
/// start before its last arrival — no later chunk can sort before them.
void FleetRun::merge_obs(ChunkBase& chunk) {
  const core::SimTime final_before = chunk.arrivals.back().second * core::seconds(1);
  if (chunk.hub != nullptr) {
    const obs::hostprof::HostScope scope(host_tl, "merge.tracer");
    trace->commit_events(chunk.hub->tracer, chunk.records, final_before);
  }
  {
    const obs::hostprof::HostScope scope(host_tl, "merge.metrics");
    for (const obs::MetricsSnapshot& snap : chunk.metric_snaps) {
      config.obs->metrics.merge_from(snap);
    }
  }
  if (chunk.hub != nullptr) {
    const obs::hostprof::HostScope scope(host_tl, "merge.spans");
    trace->commit_spans(chunk.records, final_before);
  }
}

FleetSimResult FleetRun::finish(
    const char* close_phase,
    const std::function<std::uint64_t(obs::health::SampleLog*)>& close) {
  const obs::hostprof::HostScope merge_scope(host_tl, "merge");
  obs::health::SampleLog tail = egress_log();
  std::uint64_t overload_seconds = 0;
  {
    const obs::hostprof::HostScope scope(host_tl, close_phase);
    overload_seconds = close(fold ? &tail : nullptr);
  }
  if (trace) {
    const obs::hostprof::HostScope scope(host_tl, "merge.tracer");
    trace->finish();
  }
  if (fold) {
    const obs::hostprof::HostScope scope(host_tl, "samplelog.replay");
    obs::health::LogFold::Committed committed;
    fold->commit(tail, committed);
    for (std::size_t lane = 0; lane < fold->lanes(); ++lane) fold->fold(lane, committed);
    fold->finish();
  }
  // The result's statistics, from its sorted busy windows.
  sort_busy_windows();
  const std::vector<double>& busy = result.busy_window_utilization;
  result.summary = stats::summarize_sorted(busy);
  result.p99 = stats::quantile_sorted(busy, 0.99);
  result.p999 = stats::quantile_sorted(busy, 0.999);
  result.share_leq_45 = 1.0 - stats::fraction_above(busy, 45.0);
  const std::int64_t total_seconds = sim_period(config).seconds;
  result.overload_seconds_share =
      total_seconds == 0 ? 0.0
                         : static_cast<double>(overload_seconds) /
                               static_cast<double>(total_seconds);
  if (config.hostprof != nullptr) config.hostprof->set_run_shape(chunks_, jobs);
  return std::move(result);
}

}  // namespace detail

FleetSimResult simulate_fleet(std::span<const dataset::TestRecord> population,
                              const swift::ModelRegistry& registry,
                              const FleetSimConfig& config) {
  if (population.empty() || config.server_count == 0) return {};
  const auto run_start = std::chrono::steady_clock::now();
  if (config.resource != nullptr) config.resource->begin_run();
  FleetSimResult result =
      config.backend == FleetBackend::kPacket && config.server_uplink_mbps > 0.0
          ? detail::run_packet(population, registry, config)
          : detail::run_analytic(population, registry, config);
  if (config.resource != nullptr) {
    config.resource->finish_run(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - run_start)
                                    .count());
  }
  return result;
}

}  // namespace swiftest::deploy
