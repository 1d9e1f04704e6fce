// The analytic fleet backend: closed-form load accounting over the drawn
// workload (FleetBackend::kAnalytic).
#include "bts/tester.hpp"
#include "deploy/fleet_run.hpp"

namespace swiftest::deploy::detail {
namespace {

void run_analytic_chunk(const FleetSimConfig& config, ChunkBase& out) {
  for (const Arrival& a : out.arrivals) {
    ++out.tests;
    if (out.hub != nullptr && config.sample.sampled(a.test_id, config.seed)) {
      const core::SimTime ts = a.second * core::seconds(1);
      const core::SimTime te = ts + a.duration_s * core::seconds(1);
      out.hub->metrics.counter("fleet.tests_sampled").inc();
      if (out.hub->tracer.wants(obs::Category::kFleet)) {
        out.hub->tracer.record(ts, obs::Category::kFleet,
                               obs::EventKind::kInstant, "fleet.test_start",
                               a.test_id, a.rate_mbps);
        out.hub->tracer.record(te, obs::Category::kFleet,
                               obs::EventKind::kInstant, "fleet.test_done",
                               a.test_id, a.rate_mbps);
      }
      // trace_id 0 means "no trace", so the sampling key shifts by one.
      const obs::span::SpanId span = out.hub->spans.begin(
          ts, obs::Category::kFleet, "fleet.test", obs::span::kNoSpan,
          a.test_id + 1);
      out.hub->spans.attr_f64(span, "truth_mbps", a.truth_mbps);
      out.hub->spans.attr_f64(span, "rate_mbps", a.rate_mbps);
      out.hub->spans.end(span, te);
      out.records.take_spans(out.hub->spans);
    }
    if (config.health != nullptr) {
      out.log.note_arrival(static_cast<double>(a.second));
      // Data usage at the settled probing rate for the test's duration. No
      // estimator in the closed form: deviation is the model-coverage proxy
      // — zero whenever the settled rate covers the client's truth.
      DimensionTable::record_test(
          out.log, a, static_cast<double>(a.duration_s),
          a.rate_mbps * static_cast<double>(a.duration_s) / 8.0,
          bts::deviation(std::min(a.rate_mbps, a.truth_mbps), a.truth_mbps));
    }
  }
  if (out.hub != nullptr) out.metric_snaps.push_back(out.hub->metrics.snapshot());
}

/// The closed-form load accounting, fed the draws in order as chunks commit.
/// Floating-point sums are not associative, so this is the one place the
/// numbers accumulate — serially, in the historical order (per second, the
/// arrivals at that second join first, then every server's load sums in
/// arrival order), bit-identical for every (chunk, jobs). A second is
/// computed once the first arrival after it is known; a window closes once a
/// later second is computed, and emits each busy server's utilization,
/// window-major then server. Memory is O(servers + active tests).
class AnalyticLoad {
 public:
  AnalyticLoad(const FleetSimConfig& config, std::vector<double>& busy_windows)
      : config_(config),
        period_(sim_period(config)),
        fleet_capacity_(config.server_uplink_mbps *
                        static_cast<double>(config.server_count)),
        active_(config.server_count),
        window_load_(config.server_count, 0.0),
        busy_windows_(busy_windows) {}

  /// Accounts `arrivals`, the next draws in order. Busy windows that close
  /// land in the result and, when non-null, in `egress`.
  void add(std::span<const Arrival> arrivals, obs::health::SampleLog* egress) {
    for (const Arrival& a : arrivals) {
      advance_to(a.second, egress);
      for (std::size_t s = 0; s < a.n_servers; ++s) {
        active_[(a.first_server + s) % config_.server_count].emplace_back(
            a.duration_s, a.rate_mbps / static_cast<double>(a.n_servers));
        ++active_entries_;
      }
    }
  }

  /// Accounts the rest of the period and closes the last window.
  void finish(obs::health::SampleLog* egress) {
    advance_to(period_.seconds, egress);
    close_window(egress);
    // Seconds never computed carried no load.
    if (0.0 > fleet_capacity_) overload_seconds_ += period_.seconds - computed_;
  }

  /// Seconds whose requested fleet load exceeded the fleet's capacity.
  [[nodiscard]] std::uint64_t overload_seconds() const noexcept {
    return static_cast<std::uint64_t>(overload_seconds_);
  }

 private:
  /// Computes every second before `second`. Idle stretches are skipped:
  /// nothing contributes load until the next arrival.
  void advance_to(std::int64_t second, obs::health::SampleLog* egress) {
    while (next_second_ < second) {
      if (active_entries_ == 0) {
        next_second_ = second;
        return;
      }
      compute(next_second_++, egress);
    }
  }

  void compute(std::int64_t second, obs::health::SampleLog* egress) {
    const std::int64_t w = second / kUtilizationWindowSeconds;
    if (w != window_) {
      close_window(egress);
      window_ = w;
    }
    double second_total = 0.0;
    for (std::size_t s = 0; s < config_.server_count; ++s) {
      double load = 0.0;
      for (auto& [remaining, mbps] : active_[s]) {
        load += mbps;
        --remaining;
      }
      const std::size_t before = active_[s].size();
      std::erase_if(active_[s], [](const auto& e) { return e.first <= 0; });
      active_entries_ -= before - active_[s].size();
      if (load > 0.0) window_load_[s] += load;
      second_total += load;
    }
    if (second_total > fleet_capacity_) ++overload_seconds_;
    ++computed_;
  }

  /// Emits the open window's busy servers (busy windows only, matching Fig
  /// 26's utilization distribution) and resets its sums.
  void close_window(obs::health::SampleLog* egress) {
    if (window_ < 0) return;
    for (std::size_t s = 0; s < config_.server_count; ++s) {
      const double util = 100.0 * window_load_[s] /
                          static_cast<double>(kUtilizationWindowSeconds) /
                          config_.server_uplink_mbps;
      window_load_[s] = 0.0;
      if (util > 0.0) {
        busy_windows_.push_back(util);
        if (egress != nullptr) {
          egress->record_egress_utilization(static_cast<std::uint32_t>(s), util);
        }
      }
    }
    window_ = -1;
  }

  const FleetSimConfig& config_;
  const Period period_;
  const double fleet_capacity_;
  std::vector<std::vector<std::pair<int, double>>> active_;  // [server]
  std::size_t active_entries_ = 0;
  std::int64_t next_second_ = 0;  // the next second to compute
  std::int64_t computed_ = 0;     // seconds computed
  std::int64_t window_ = -1;      // the open window; -1 for none
  std::vector<double> window_load_;  // the open window's sums, [server]
  std::vector<double>& busy_windows_;
  std::int64_t overload_seconds_ = 0;
};

}  // namespace

FleetSimResult run_analytic(std::span<const dataset::TestRecord> population,
                            const swift::ModelRegistry& registry,
                            const FleetSimConfig& config) {
  // The analytic backend emits observability only under sampling: its
  // legacy contract is "no obs emission", and the sampled fleet.test
  // events/spans are the artifact the byte-identity gate pins.
  FleetRun run(population, registry, config,
               config.obs != nullptr && config.sample.enabled());
  AnalyticLoad load(config, run.result.busy_window_utilization);
  run.stream<ChunkBase>(
      [&]() -> std::unique_ptr<obs::Hub> {
        if (!run.trace) return nullptr;
        // A bounded trace ring, so a run of many small chunks cannot
        // multiply the parent's ring size by the chunk count. Analytic
        // chunks emit at most two events per test, so 4 * chunk_size +
        // slack never wraps (no drop-order dependence).
        auto hub = obs::Hub::mirror_of(*config.obs, 4 * run.chunk_size + 1024);
        // Analytic fleet.test spans root their trace trees explicitly, so
        // sampled mode stays off; only the id-leaking tracer mirror goes.
        hub->spans.set_sinks(nullptr, &hub->metrics);
        return hub;
      },
      [&](ChunkBase& out) { run_analytic_chunk(config, out); },
      [&](ChunkBase& chunk) {
        const obs::hostprof::HostScope scope(run.host_tl, "replay.numeric");
        load.add(chunk.arrivals, run.fold ? &chunk.egress : nullptr);
      });
  return run.finish("replay.numeric", [&](obs::health::SampleLog* tail) {
    load.finish(tail);
    return load.overload_seconds();
  });
}

}  // namespace swiftest::deploy::detail
