#include "deploy/fleet_sim.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "bts/tester.hpp"
#include "core/rng.hpp"
#include "dataset/profiles.hpp"
#include "dataset/taxonomy.hpp"
#include "exec/exec.hpp"
#include "obs/health/sample_log.hpp"
#include "obs/log.hpp"
#include "deploy/trace_stream.hpp"
#include "deploy/placement.hpp"
#include "netsim/testbed.hpp"
#include "swiftest/client.hpp"
#include "swiftest/fleet.hpp"
#include "swiftest/wire_client.hpp"

namespace swiftest::deploy {

double settled_probing_rate(const stats::GaussianMixture& model, double truth_mbps) {
  double rate = std::max(1.0, model.most_probable_mode());
  for (int i = 0; i < 16 && rate < truth_mbps; ++i) {
    const double next = model.most_probable_mode_above(rate);
    rate = next > rate ? next : rate * 1.25;
  }
  return rate;
}

namespace {

/// Decorrelates packet testbed topology randomness from the workload draw
/// stream; each test's private testbed further splits it with
/// core::stream_seed of the test's global draw index.
constexpr std::uint64_t kTestbedSeedSalt = 0x9E3779B97F4A7C15ull;

/// Tests per execution chunk when FleetSimConfig::chunk is 0.
constexpr std::size_t kDefaultChunkSize = 256;

/// One test drawn from the workload generator: everything both backends need
/// to replay it.
struct Arrival {
  std::int64_t second = 0;  // arrival time, seconds since simulation start
  dataset::AccessTech tech = dataset::AccessTech::kWiFi5;
  dataset::Isp isp = dataset::Isp::kIsp1;
  double truth_mbps = 0.0;
  double rate_mbps = 0.0;       // the settled probing rate (analytic load)
  std::size_t n_servers = 1;    // servers the analytic model spreads it over
  int duration_s = 1;
  std::size_t first_server = 0;
  /// Global workload draw index — the observability sampling key, the packet
  /// testbed's RNG stream index, and the canonical merge key. Assigned in
  /// draw order, so it is identical for every chunk size and never consumes
  /// RNG state.
  std::uint64_t test_id = 0;
};

/// Draws the workload in consecutive pieces, one chunk at a time. The RNG
/// consumption order is exactly the historical analytic loop's — per second
/// one poisson draw, then per test: record, duration, domain, offset — so a
/// given seed produces the identical test sequence for both backends and for
/// any chunk size: a chunk boundary may fall inside a second, never inside a
/// draw.
class WorkloadDraw {
 public:
  WorkloadDraw(std::span<const dataset::TestRecord> population,
               const swift::ModelRegistry& registry, const FleetSimConfig& config)
      : population_(population),
        registry_(registry),
        config_(config),
        rng_(config.seed),
        settled_by_record_(population.size()) {
    const auto weights = dataset::hourly_test_weights();
    double weight_sum = 0.0;
    for (double w : weights) weight_sum += w;
    for (std::size_t hour = 0; hour < rate_by_hour_.size(); ++hour) {
      rate_by_hour_[hour] = config.tests_per_day * weights[hour] / weight_sum / 3600.0;
    }
    // Geographic assignment: contiguous server ranges per IXP domain.
    servers_per_domain_ = place_servers(config.server_count).servers_per_domain;
    const auto domains = ixp_domains();
    std::size_t next_server = 0;
    for (std::size_t d = 0; d < domains.size(); ++d) {
      domain_shares_.push_back(domains[d].demand_share);
      domain_first_.push_back(next_server);
      next_server += servers_per_domain_[d];
    }
    seconds_ = config.days > 0 ? static_cast<std::int64_t>(config.days) * 24 * 3600 : 0;
  }

  /// Replaces `out` with the next (up to) `n` draws; false once none are
  /// left.
  bool next(std::size_t n, std::vector<Arrival>& out) {
    out.clear();
    while (out.size() < n) {
      if (pending_ == 0) {
        if (next_second_ >= seconds_) break;
        second_ = next_second_++;
        const auto hour = static_cast<std::size_t>(second_ % (24 * 3600) / 3600);
        pending_ = rng_.poisson(rate_by_hour_[hour]);
        continue;
      }
      --pending_;
      out.push_back(draw_one());
    }
    return !out.empty();
  }

 private:
  /// The settled rate and server spread are pure functions of the drawn
  /// record, so each record's pair is computed on its first draw only.
  struct Settled {
    double rate_mbps = 0.0;
    std::size_t n_servers = 1;
  };

  Arrival draw_one() {
    const auto index = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(population_.size()) - 1));
    const auto& rec = population_[index];
    std::optional<Settled>& settled = settled_by_record_[index];
    if (!settled) {
      settled.emplace();
      settled->rate_mbps =
          settled_probing_rate(registry_.model(rec.tech), rec.bandwidth_mbps);
      settled->n_servers = std::min<std::size_t>(
          config_.server_count,
          swift::SwiftestClient::servers_needed(settled->rate_mbps,
                                                config_.server_uplink_mbps));
    }
    Arrival arrival;
    arrival.second = second_;
    arrival.tech = rec.tech;
    arrival.isp = rec.isp;
    arrival.truth_mbps = rec.bandwidth_mbps;
    arrival.rate_mbps = settled->rate_mbps;
    arrival.n_servers = settled->n_servers;
    arrival.duration_s = rng_.bernoulli(0.25) ? 2 : 1;  // ~1.2 s average
    const auto domain = rng_.weighted_index(domain_shares_);
    const std::size_t domain_size = std::max<std::size_t>(1, servers_per_domain_[domain]);
    const auto offset = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(domain_size) - 1));
    arrival.first_server = (domain_first_[domain] + offset) % config_.server_count;
    arrival.test_id = next_id_++;
    return arrival;
  }

  std::span<const dataset::TestRecord> population_;
  const swift::ModelRegistry& registry_;
  const FleetSimConfig& config_;
  core::Rng rng_;
  std::array<double, 24> rate_by_hour_{};  // arrivals per second, by hour
  std::vector<std::size_t> servers_per_domain_;
  std::vector<double> domain_shares_;
  std::vector<std::size_t> domain_first_;
  std::vector<std::optional<Settled>> settled_by_record_;
  std::int64_t seconds_ = 0;      // the simulated period
  std::int64_t next_second_ = 0;  // the next second to draw a count for
  std::int64_t second_ = 0;       // the second being drawn
  std::int64_t pending_ = 0;      // tests left to draw in second_
  std::uint64_t next_id_ = 0;
};

/// The run's one health dimension table: every tech key, then every ISP key,
/// then every server key. A test's dimension ids are offsets into it, so
/// recording a test builds no strings and searches no keys, and the fold
/// resolves each key to its cells once per run.
class DimensionTable {
 public:
  using DimId = obs::health::SampleLog::DimId;

  explicit DimensionTable(std::size_t server_count) {
    keys_.resize(kServers + server_count);
    for (const dataset::AccessTech t : dataset::kAllTechs) {
      keys_[static_cast<std::size_t>(t)] = dataset::dimension_key(t);
    }
    for (const dataset::Isp isp : dataset::kAllIsps) {
      keys_[kIsps + static_cast<std::size_t>(isp)] = dataset::dimension_key(isp);
    }
    for (std::size_t s = 0; s < server_count; ++s) {
      obs::health::ServerKeyBuffer key;
      keys_[kServers + s] = obs::health::server_dimension(s, key);
    }
  }

  [[nodiscard]] std::span<const std::string> keys() const noexcept { return keys_; }
  /// Server `s`'s key, as a one-key span.
  [[nodiscard]] std::span<const std::string> server(std::size_t s) const noexcept {
    return keys().subspan(kServers + s, 1);
  }

  /// Records one completed test into `log` (whose table this is) under its
  /// tech, ISP and first server.
  static void record_test(obs::health::SampleLog& log, const Arrival& a,
                          double duration_s, double data_mb, double deviation) {
    obs::health::SampleLog::TestEntry e;
    e.duration_s = duration_s;
    e.data_mb = data_mb;
    e.deviation = deviation;
    e.dims[0] = static_cast<DimId>(a.tech);
    e.dims[1] = static_cast<DimId>(kIsps + static_cast<std::size_t>(a.isp));
    e.dims[2] = static_cast<DimId>(kServers + a.first_server);
    log.record_test(e);
  }

 private:
  static constexpr std::size_t kIsps = dataset::kAllTechs.size();
  static constexpr std::size_t kServers = kIsps + dataset::kAllIsps.size();

  std::vector<std::string> keys_;
};

/// The simulated period and its whole utilization windows (none when
/// windowing is off).
struct Period {
  std::int64_t seconds = 0;
  std::int64_t windows = 0;
};

Period sim_period(const FleetSimConfig& config) {
  Period period;
  period.seconds = static_cast<std::int64_t>(config.days) * 24 * 3600;
  period.windows =
      config.window_seconds > 0 ? period.seconds / config.window_seconds : 0;
  return period;
}

/// The calling thread's host-time timeline, or null when unprofiled.
obs::hostprof::Timeline* main_timeline(const FleetSimConfig& config) {
  return config.hostprof != nullptr ? &config.hostprof->main() : nullptr;
}

/// Fills the result's statistics from its sorted busy windows.
void finish_result(FleetSimResult& result, std::uint64_t overload_seconds,
                   std::uint64_t total_seconds) {
  result.summary = stats::summarize_sorted(result.busy_window_utilization);
  result.p99 = stats::quantile_sorted(result.busy_window_utilization, 0.99);
  result.p999 = stats::quantile_sorted(result.busy_window_utilization, 0.999);
  result.share_leq_45 =
      1.0 - stats::fraction_above(result.busy_window_utilization, 45.0);
  result.overload_seconds_share =
      total_seconds == 0 ? 0.0
                         : static_cast<double>(overload_seconds) /
                               static_cast<double>(total_seconds);
}

// ---------------------------------------------------------------------------
// The chunk stream both backends run through
// ---------------------------------------------------------------------------

/// One chunk of consecutive draws, whatever the backend, from its draw until
/// every health lane has folded it: its arrivals, test count, health log,
/// sampled observability and self-telemetry.
struct ChunkBase {
  std::vector<Arrival> arrivals;
  std::uint64_t tests = 0;
  bool want_health = false;
  obs::health::SampleLog log;
  obs::health::LogFold::Committed committed;  // `log`, once committed
  /// Chunk-local observability accumulator; null when the run exports none.
  std::unique_ptr<obs::Hub> hub;
  /// The chunk's spans and the sorted runs its full ring and span buffer
  /// wrote before the commit.
  ChunkRecords records;
  // Metrics snapshots in draw order (one per packet test, one per analytic
  // chunk). Metrics must merge as a flat left fold over these — not over
  // chunk hubs — because gauge adds and histogram `sum` accumulation are
  // floating-point: folding per-chunk partials of per-test data would make
  // the result depend on where the chunk boundaries fall.
  std::vector<obs::MetricsSnapshot> metric_snaps;
  obs::ShardTelemetry telemetry;
};

/// What one run holds across its chunk stream: the draw, the health fold and
/// the canonical trace stream its chunks commit into, and the result.
class FleetRun {
 public:
  FleetRun(std::span<const dataset::TestRecord> population,
           const swift::ModelRegistry& registry, const FleetSimConfig& config,
           bool obs_merge)
      : config(config),
        host_tl(main_timeline(config)),
        chunk_size(config.chunk == 0 ? kDefaultChunkSize : config.chunk),
        jobs(exec::resolve_jobs(config.jobs)),
        draw_(population, registry, config),
        dims_(config.server_count) {
    if (config.health != nullptr) fold.emplace(*config.health, jobs, dims_.keys());
    if (obs_merge) trace.emplace(*config.obs);
  }

  // The fold and every chunk log hold views of dims_, and the stream's
  // stages hold `this`.
  FleetRun(const FleetRun&) = delete;
  FleetRun& operator=(const FleetRun&) = delete;

  const FleetSimConfig& config;
  obs::hostprof::Timeline* const host_tl;
  const std::size_t chunk_size;
  const std::size_t jobs;
  std::optional<obs::health::LogFold> fold;
  /// With `obs_merge`, chunks carry hubs whose metrics fold into config.obs
  /// and whose trace events and spans stream into it (or its sinks) here.
  std::optional<CanonicalStream> trace;
  FleetSimResult result;

  /// Runs the stream: each chunk is drawn into a ring slot on the calling
  /// thread, run by `run_chunk` on a worker, committed in chunk order — the
  /// test count, `commit_chunk` (the backend's share), the metrics fold into
  /// config.obs and the trace stream's commit, the health log commit — and
  /// then folded by every health
  /// lane, all while later chunks are drawn and run (exec::run_stream). A
  /// chunk's state is freed when its slot is redrawn, so memory is O(jobs x
  /// chunk). `make_hub` returns each chunk's hub (null for none).
  template <typename Chunk>
  void stream(const std::function<std::unique_ptr<obs::Hub>()>& make_hub,
              const std::function<void(Chunk&)>& run_chunk,
              const std::function<void(Chunk&)>& commit_chunk);

  /// Emits what the trace stream still holds (timed as merge.tracer).
  void finish_obs();

  /// Commits the run's last health log, `tail`, folds it on every lane and
  /// drains the lanes.
  void finish_health(obs::health::SampleLog& tail);

  /// Chunks drawn.
  [[nodiscard]] std::size_t chunks() const noexcept { return chunks_; }
  /// The run's health dimension table.
  [[nodiscard]] const DimensionTable& dims() const noexcept { return dims_; }

  /// Sorts every full run of kSortRun busy windows not yet sorted: called
  /// as the vector grows during the stream, so the calling thread sorts
  /// while lanes fold and the tail only merges.
  void sort_busy_runs() {
    std::vector<double>& busy = result.busy_window_utilization;
    while (busy.size() - sorted_runs_.back() >= kSortRun) {
      const std::size_t lo = sorted_runs_.back();
      std::sort(busy.begin() + static_cast<std::ptrdiff_t>(lo),
                busy.begin() + static_cast<std::ptrdiff_t>(lo + kSortRun));
      sorted_runs_.push_back(lo + kSortRun);
    }
  }

  /// Sorts the busy windows: the last run, then pairwise merges of adjacent
  /// runs. Distinct doubles have one ascending order (busy windows are
  /// positive, so no signed zero or NaN), so this is std::sort's result.
  void sort_busy_windows() {
    std::vector<double>& busy = result.busy_window_utilization;
    const auto at = [&](std::size_t i) {
      return busy.begin() + static_cast<std::ptrdiff_t>(i);
    };
    std::sort(at(sorted_runs_.back()), busy.end());
    if (sorted_runs_.back() != busy.size()) sorted_runs_.push_back(busy.size());
    while (sorted_runs_.size() > 2) {
      std::vector<std::size_t> merged = {0};
      for (std::size_t r = 0; r + 2 < sorted_runs_.size(); r += 2) {
        std::inplace_merge(at(sorted_runs_[r]), at(sorted_runs_[r + 1]),
                           at(sorted_runs_[r + 2]));
        merged.push_back(sorted_runs_[r + 2]);
      }
      if (sorted_runs_.size() % 2 == 0) merged.push_back(sorted_runs_.back());
      sorted_runs_ = std::move(merged);
    }
  }

 private:
  static constexpr std::size_t kSortRun = std::size_t{1} << 16;

  void merge_obs(ChunkBase& chunk);

  WorkloadDraw draw_;
  DimensionTable dims_;
  std::size_t chunks_ = 0;
  std::vector<std::size_t> sorted_runs_ = {0};  // sorted busy-window run bounds
};

template <typename Chunk>
void FleetRun::stream(const std::function<std::unique_ptr<obs::Hub>()>& make_hub,
                      const std::function<void(Chunk&)>& run_chunk,
                      const std::function<void(Chunk&)>& commit_chunk) {
  std::vector<Chunk> slots(exec::stream_ring(jobs));
  const auto slot = [&](std::size_t c) -> Chunk& { return slots[c % slots.size()]; };
  exec::StreamStages stages;
  stages.draw = [&](std::size_t c) {
    const obs::hostprof::HostScope scope(host_tl, "workload.gen");
    Chunk& out = slot(c);
    // Frees the chunk this slot held, keeping only its arrival buffer.
    std::vector<Arrival> arrivals = std::move(out.arrivals);
    out = Chunk();
    out.arrivals = std::move(arrivals);
    if (!draw_.next(chunk_size, out.arrivals)) {
      if (config.resource != nullptr) config.resource->end_draw();
      return false;
    }
    ++chunks_;
    out.want_health = fold.has_value();
    if (out.want_health) out.log = obs::health::SampleLog(dims_.keys());
    out.hub = make_hub();
    if (out.hub != nullptr) {
      out.records = ChunkRecords(c);
      out.records.arm(*out.hub, *config.obs);
    }
    if (config.resource != nullptr) config.resource->note_shard_drawn();
    return true;
  };
  stages.run = [&](std::size_t c) {
    const auto t0 = std::chrono::steady_clock::now();
    Chunk& out = slot(c);
    run_chunk(out);
    obs::ShardTelemetry& t = out.telemetry;
    t.shard = c;
    t.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    t.tests = out.tests;
    t.health_dropped = out.log.dropped();
    if (config.resource != nullptr) {
      config.resource->add_tests(out.tests);
      config.resource->record_shard(t);
      config.resource->note_shard_done();
    }
  };
  stages.commit = [&](std::size_t c) {
    Chunk& chunk = slot(c);
    result.tests_simulated += chunk.tests;
    commit_chunk(chunk);
    const obs::hostprof::HostScope scope(host_tl, "merge");
    if (trace) merge_obs(chunk);
    if (fold) fold->commit(chunk.log, chunk.committed);
  };
  stages.lanes = fold ? fold->lanes() : 0;
  stages.fold = [&](std::size_t lane, std::size_t c) {
    Chunk& chunk = slot(c);
    fold->fold(lane, chunk.committed);
    if constexpr (requires { chunk.egress_committed; }) {
      fold->fold(lane, chunk.egress_committed);
    }
  };
  result.peak_live_chunks = exec::run_stream(jobs, stages, config.hostprof);
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

void FleetRun::finish_obs() {
  if (!trace) return;
  const obs::hostprof::HostScope scope(host_tl, "merge.tracer");
  trace->finish();
}

void FleetRun::finish_health(obs::health::SampleLog& tail) {
  if (!fold) return;
  const obs::hostprof::HostScope scope(host_tl, "samplelog.replay");
  obs::health::LogFold::Committed committed;
  fold->commit(tail, committed);
  for (std::size_t lane = 0; lane < fold->lanes(); ++lane) fold->fold(lane, committed);
  fold->finish();
}

/// A log for the run's egress samples: unbounded, since dropping any would
/// change the health report.
obs::health::SampleLog egress_log() {
  return obs::health::SampleLog({}, std::numeric_limits<std::size_t>::max());
}

// ---------------------------------------------------------------------------
// Analytic backend
// ---------------------------------------------------------------------------

/// One analytic chunk: health samples and sampled observability for its
/// slice of draws, plus the busy windows that closed when it committed. The
/// hub is null unless sampling is enabled — legacy analytic runs emit
/// nothing.
struct AnalyticChunk : ChunkBase {
  obs::health::SampleLog egress = egress_log();
  obs::health::LogFold::Committed egress_committed;
};

void run_analytic_chunk(const FleetSimConfig& config, AnalyticChunk& out) {
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
    if (out.want_health) {
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
    const std::int64_t w =
        config_.window_seconds > 0 ? second / config_.window_seconds : period_.windows;
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
      if (load > 0.0 && w < period_.windows) window_load_[s] += load;
      second_total += load;
    }
    if (second_total > fleet_capacity_) ++overload_seconds_;
    ++computed_;
  }

  /// Emits the open window's busy servers (busy windows only, matching Fig
  /// 26's utilization distribution) and resets its sums.
  void close_window(obs::health::SampleLog* egress) {
    if (window_ < 0 || window_ >= period_.windows) return;
    for (std::size_t s = 0; s < config_.server_count; ++s) {
      const double util = 100.0 * window_load_[s] /
                          static_cast<double>(config_.window_seconds) /
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

FleetSimResult run_analytic(std::span<const dataset::TestRecord> population,
                            const swift::ModelRegistry& registry,
                            const FleetSimConfig& config) {
  // The analytic backend emits observability only under sampling: its
  // legacy contract is "no obs emission", and the sampled fleet.test
  // events/spans are the artifact the byte-identity gate pins.
  FleetRun run(population, registry, config,
               config.obs != nullptr && config.sample.enabled());
  AnalyticLoad load(config, run.result.busy_window_utilization);
  run.stream<AnalyticChunk>(
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
      [&](AnalyticChunk& out) { run_analytic_chunk(config, out); },
      [&](AnalyticChunk& chunk) {
        {
          const obs::hostprof::HostScope scope(run.host_tl, "replay.numeric");
          load.add(chunk.arrivals, run.fold ? &chunk.egress : nullptr);
        }
        if (run.fold) run.fold->commit(chunk.egress, chunk.egress_committed);
        run.sort_busy_runs();
      });

  const obs::hostprof::HostScope merge_scope(run.host_tl, "merge");
  obs::health::SampleLog tail = egress_log();
  {
    const obs::hostprof::HostScope scope(run.host_tl, "replay.numeric");
    load.finish(run.fold ? &tail : nullptr);
  }
  run.finish_obs();
  run.finish_health(tail);
  run.sort_busy_windows();
  finish_result(run.result, load.overload_seconds(),
                static_cast<std::uint64_t>(sim_period(config).seconds));
  if (config.hostprof != nullptr) config.hostprof->set_run_shape(run.chunks(), run.jobs);
  return std::move(run.result);
}

// ---------------------------------------------------------------------------
// Packet backend
// ---------------------------------------------------------------------------

/// One packet chunk's output. Every test in the chunk runs in its own
/// isolated testbed (seeded by the test's global draw index), so a chunk is
/// a pure function of its slice of draws: per-(window, server) delivered
/// bytes and per-server protocol counters are *integers* that sum exactly —
/// in any order — at commit. That is what makes the packet artifacts
/// partition-free, at the documented cost of not modeling cross-test egress
/// contention. The hub mirrors config.obs (null when disabled).
struct PacketChunk : ChunkBase {
  struct WindowDelta {
    std::uint32_t window = 0;
    std::uint32_t server = 0;
    std::int64_t bytes = 0;
  };
  std::vector<WindowDelta> deltas;
  std::vector<std::uint64_t> server_accepted;    // [server_count]
  std::vector<std::int64_t> server_probe_bytes;  // [server_count]
};

void run_packet_test(const Arrival& a, const swift::ModelRegistry& registry,
                     const FleetSimConfig& config, std::int64_t windows_total,
                     PacketChunk& out) {
  // Whole-test sampling: keyed on the global draw index, so the decision is
  // identical for every chunk size and jobs value.
  const bool sampled_mode = config.sample.enabled();
  const bool sampled_test = config.sample.sampled(a.test_id, config.seed);
  const bool count_sampled = sampled_test && sampled_mode;
  netsim::TestbedConfig tb_cfg;
  tb_cfg.fleet.server_count = config.server_count;
  tb_cfg.fleet.server_uplink = core::Bandwidth::mbps(config.server_uplink_mbps);
  netsim::ClientAccessConfig slot_cfg;
  slot_cfg.access_rate = core::Bandwidth::mbps(1000);  // re-set to truth below
  tb_cfg.clients = {slot_cfg};
  netsim::Testbed testbed(
      tb_cfg, core::stream_seed(config.seed ^ kTestbedSeedSalt, a.test_id));
  netsim::Scheduler& sched = testbed.scheduler();
  // Each test keeps its own hub for metrics and spans: spans fold into the
  // chunk hub right after the test, while the metrics snapshot is kept per
  // test for the draw-order fold at commit (see ChunkBase::metric_snaps).
  // Trace events skip the per-test hub: a sampled test records straight into
  // the chunk ring (tests in a chunk run one after another, so the ring sees
  // the same events in the same order a per-test fold would give it, and its
  // overflow runs catch a test that fills it), and an unsampled test traces
  // nothing.
  std::unique_ptr<obs::Hub> test_hub;
  if (out.hub != nullptr) {
    test_hub = obs::Hub::mirror_of(*out.hub);
    if (sampled_mode) test_hub->spans.set_sampled_mode(true);
    // Span ids are store-local and partition-dependent; the begin/end tracer
    // mirror would leak them into the merged trace, so spans mirror into
    // metrics only.
    test_hub->spans.set_sinks(nullptr, &test_hub->metrics);
  }
  sched.set_obs(test_hub.get());
  if (out.hub != nullptr) sched.set_tracer(sampled_test ? &out.hub->tracer : nullptr);

  swift::ServerConfig server_cfg;
  server_cfg.uplink = core::Bandwidth::mbps(config.server_uplink_mbps);

  obs::health::SampleLog* health = out.want_health ? &out.log : nullptr;
  netsim::ClientContext& ctx = testbed.client(0);
  // Every span this test's client (or the wire protocol under it) would
  // begin becomes a no-op when unsampled.
  ctx.spans().set_suppressed(!sampled_test);

  const std::int64_t W = config.window_seconds;
  const core::SimTime start = a.second * core::seconds(1);

  std::unique_ptr<swift::ServerFleet> fleet;
  std::unique_ptr<swift::WireClient> wire;
  obs::span::SpanId test_span = obs::span::kNoSpan;
  bool done = false;

  auto trace_fleet = [&sched](const char* name, std::uint64_t id, double value) {
    if (auto* tr = sched.tracer(obs::Category::kFleet)) {
      tr->record(sched.now(), obs::Category::kFleet, obs::EventKind::kInstant,
                 name, id, value);
    }
  };

  // Utilization windows tick on the GLOBAL W-second grid — window w's
  // delivered-byte delta is read at time (w+1)*W regardless of when the
  // test started — so per-window deltas from different tests line up and
  // sum exactly at commit. The chain self-terminates once the test is done
  // and a tick sees no new bytes.
  std::vector<std::int64_t> last_delivered(config.server_count, 0);
  std::int64_t window_index = W > 0 ? a.second / W : 0;
  std::function<void()> tick = [&] {
    bool moved = false;
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const netsim::LinkBase* egress = testbed.server_egress(s);
      const std::int64_t delivered =
          egress != nullptr ? egress->stats().bytes_delivered : 0;
      const std::int64_t delta = delivered - last_delivered[s];
      last_delivered[s] = delivered;
      if (delta != 0) {
        out.deltas.push_back(
            PacketChunk::WindowDelta{static_cast<std::uint32_t>(window_index),
                                     static_cast<std::uint32_t>(s), delta});
        moved = true;
      }
    }
    ++window_index;
    if (window_index < windows_total && (moved || !done)) {
      sched.schedule_in(W * core::seconds(1), tick);
    }
  };

  sched.schedule_at(start, [&] {
    if (health != nullptr) health->note_arrival(static_cast<double>(a.second));
    // Servers are born at test start, not at t = 0: their idle-GC timers
    // only tick while the test lives, which keeps this private scheduler's
    // event count proportional to the test, not to the simulated week.
    fleet = std::make_unique<swift::ServerFleet>(testbed, server_cfg);
    if (auto* hub = sched.obs()) {
      hub->metrics.counter("fleet.tests_started").inc();
      if (count_sampled) hub->metrics.counter("fleet.tests_sampled").inc();
    }
    if (sampled_test) trace_fleet("fleet.test_start", a.test_id, a.rate_mbps);
    ctx.access_link().set_rate(core::Bandwidth::mbps(a.truth_mbps));

    swift::SwiftestConfig wc_cfg;
    wc_cfg.tech = a.tech;
    wc_cfg.server_uplink_mbps = config.server_uplink_mbps;
    wire = std::make_unique<swift::WireClient>(wc_cfg, registry, server_cfg);
    wire->attach_fleet(*fleet);
    wire->set_forced_server(a.first_server);
    auto& sctx = ctx.spans();
    test_span = sctx.begin(obs::Category::kFleet, "fleet.test");
    if (auto* spans = sctx.store()) {
      spans->attr_f64(test_span, "truth_mbps", a.truth_mbps);
      spans->attr_u64(test_span, "server", a.first_server);
    }
    sctx.push(test_span);
    wire->start(ctx, [&](const bts::BtsResult& r) {
      done = true;
      if (sampled_test) trace_fleet("fleet.test_done", a.test_id, r.bandwidth_mbps);
      if (auto* hub = sched.obs()) {
        hub->spans.attr_f64(test_span, "estimate_mbps", r.bandwidth_mbps);
        hub->spans.end(test_span, sched.now());
      }
      test_span = obs::span::kNoSpan;
      if (health != nullptr) {
        DimensionTable::record_test(*health, a, core::to_seconds(r.total_duration()),
                                    r.data_used.megabytes(),
                                    bts::deviation(r.bandwidth_mbps, a.truth_mbps));
      }
    });
    sctx.pop(test_span);
    if (W > 0 && window_index < windows_total) {
      sched.schedule_at((window_index + 1) * W * core::seconds(1), tick);
    }
    ++out.tests;
  });

  // Bound covers the protocol's hard stop (start + max_duration), delivery
  // drain, and one trailing window tick; the tick chain and the servers'
  // GC timers cannot outlive it.
  sched.run_until(start + core::seconds(30) + W * core::seconds(1));

  if (fleet != nullptr) {
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const swift::ServerStats& stats = fleet->server(s).stats();
      out.server_accepted[s] += stats.requests_accepted;
      out.server_probe_bytes[s] += stats.probe_bytes_sent;
    }
  }

  if (test_hub != nullptr) {
    // Hand this test's spans to the chunk now and bank the metrics snapshot
    // for the commit-time draw-order fold.
    out.records.take_spans(test_hub->spans);
    out.metric_snaps.push_back(test_hub->metrics.snapshot());
  }

  // Scheduler-side self-telemetry, summed across the chunk's testbeds.
  const netsim::Scheduler::AllocStats alloc = sched.alloc_stats();
  const netsim::CalendarEventQueue::Stats cal = sched.calendar_stats();
  obs::ShardTelemetry& t = out.telemetry;
  t.events_executed += sched.events_executed();
  t.slab_slots += alloc.slab_slots;
  t.callback_heap_fallbacks += alloc.callback_heap_fallbacks;
  t.payload_nodes += alloc.payload_nodes;
  t.payload_heap_spills += alloc.payload_heap_spills;
  t.transit_nodes += alloc.transit_nodes;
  t.transit_peak_live = std::max(t.transit_peak_live, alloc.transit_peak_live);
  t.calendar_sweeps += cal.sweeps;
  t.calendar_rebases += cal.rebases;
  t.calendar_far_pushes += cal.far_pushes;
}

void run_packet_chunk(const swift::ModelRegistry& registry, const FleetSimConfig& config,
                      PacketChunk& out) {
  const std::int64_t windows_total = sim_period(config).windows;
  out.server_accepted.assign(config.server_count, 0);
  out.server_probe_bytes.assign(config.server_count, 0);
  out.metric_snaps.reserve(out.arrivals.size());
  for (const Arrival& a : out.arrivals) {
    run_packet_test(a, registry, config, windows_total, out);
  }
}

FleetSimResult run_packet(std::span<const dataset::TestRecord> population,
                          const swift::ModelRegistry& registry,
                          const FleetSimConfig& config) {
  FleetRun run(population, registry, config, config.obs != nullptr);
  const Period period = sim_period(config);
  const double window_capacity_mbit =
      config.server_uplink_mbps * static_cast<double>(config.window_seconds);

  // Integer sums, commutative and associative: the committed matrices are
  // exactly partition-independent, no canonical summation order needed.
  std::vector<std::int64_t> delivered(
      static_cast<std::size_t>(period.windows) * config.server_count, 0);
  std::vector<std::uint64_t> accepted(config.server_count, 0);
  std::vector<std::int64_t> probe_bytes(config.server_count, 0);

  const auto util_of = [&](std::int64_t w, std::size_t s) {
    const std::int64_t bytes =
        delivered[static_cast<std::size_t>(w) * config.server_count + s];
    return 100.0 * static_cast<double>(bytes) * 8.0 / 1e6 / window_capacity_mbit;
  };
  // One fleet.egress_util counter per (window, server) on the global grid,
  // stamped at the window's end. Window w's bytes are final once every test
  // arriving before (w+1)*W has committed, so its counters join the trace
  // stream at the first commit whose last arrival reaches that second.
  std::int64_t next_window = 0;
  const auto add_egress_series = [&](std::int64_t windows_final) {
    if (config.obs == nullptr || !config.obs->tracer.wants(obs::Category::kFleet)) return;
    const obs::hostprof::HostScope scope(run.host_tl, "merge.windows");
    for (; next_window < std::min(windows_final, period.windows); ++next_window) {
      const core::SimTime ts =
          (next_window + 1) * config.window_seconds * core::seconds(1);
      for (std::size_t s = 0; s < config.server_count; ++s) {
        run.trace->add({ts, obs::Category::kFleet, obs::EventKind::kCounter,
                        "fleet.egress_util", s, util_of(next_window, s)});
      }
    }
  };

  // The chunk hub is an accumulator: sampled tests trace straight into its
  // ring, spans go to the chunk's records from per-test hubs after each
  // test, and metrics stay banked per test (run_packet_test).
  run.stream<PacketChunk>(
      [&] { return config.obs != nullptr ? obs::Hub::mirror_of(*config.obs) : nullptr; },
      [&](PacketChunk& out) { run_packet_chunk(registry, config, out); },
      [&](PacketChunk& chunk) {
        for (const PacketChunk::WindowDelta& d : chunk.deltas) {
          delivered[static_cast<std::size_t>(d.window) * config.server_count +
                    d.server] += d.bytes;
        }
        for (std::size_t s = 0; s < chunk.server_accepted.size(); ++s) {
          accepted[s] += chunk.server_accepted[s];
          probe_bytes[s] += chunk.server_probe_bytes[s];
        }
        const std::int64_t W = config.window_seconds;
        add_egress_series(W > 0 ? chunk.arrivals.back().second / W : 0);
      });

  const obs::hostprof::HostScope merge_scope(run.host_tl, "merge");
  add_egress_series(period.windows);
  run.finish_obs();

  // Busy windows, overload, per-server egress health and the busy-window
  // histogram from the whole matrix, window-major — the historical order.
  FleetSimResult& result = run.result;
  obs::health::SampleLog egress = egress_log();
  std::uint64_t overloaded_windows = 0;
  for (std::int64_t w = 0; w < period.windows; ++w) {
    double window_total = 0.0;
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const double util = util_of(w, s);
      window_total += util;
      if (util > 0.0) {
        result.busy_window_utilization.push_back(util);
        if (config.health != nullptr) {
          egress.record_egress_utilization(static_cast<std::uint32_t>(s), util);
        }
        if (config.obs != nullptr) {
          config.obs->metrics
              .histogram("fleet.window_utilization",
                         {5.0, 15.0, 30.0, 45.0, 60.0, 80.0, 95.0})
              .observe(util);
        }
      }
    }
    // Fleet egress effectively saturated (the overload proxy).
    if (window_total >= 98.0 * static_cast<double>(config.server_count)) {
      ++overloaded_windows;
    }
  }
  run.finish_health(egress);

  // Protocol-level per-server load balance (sessions, probe egress), from
  // the integer sums.
  if (config.health != nullptr) {
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const std::span<const std::string> dims = run.dims().server(s);
      config.health->record("server_sessions",
                            static_cast<double>(accepted[s]), dims);
      config.health->record("server_probe_mb",
                            static_cast<double>(probe_bytes[s]) / 1e6, dims);
    }
  }

  run.sort_busy_windows();
  finish_result(
      result,
      overloaded_windows * static_cast<std::uint64_t>(config.window_seconds),
      static_cast<std::uint64_t>(period.seconds));
  if (config.hostprof != nullptr) config.hostprof->set_run_shape(run.chunks(), run.jobs);
  return std::move(run.result);
}

}  // namespace

FleetSimResult simulate_fleet(std::span<const dataset::TestRecord> population,
                              const swift::ModelRegistry& registry,
                              const FleetSimConfig& config) {
  if (population.empty() || config.server_count == 0) return {};
  const auto run_start = std::chrono::steady_clock::now();
  if (config.resource != nullptr) config.resource->begin_run();
  FleetSimResult result =
      config.backend == FleetBackend::kPacket && config.server_uplink_mbps > 0.0
          ? run_packet(population, registry, config)
          : run_analytic(population, registry, config);
  if (config.resource != nullptr) {
    config.resource->finish_run(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - run_start)
                                    .count());
  }
  return result;
}

}  // namespace swiftest::deploy
