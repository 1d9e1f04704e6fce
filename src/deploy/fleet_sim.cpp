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
#include "obs/spill.hpp"
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
  /// draw order before chunking, so it is identical for every chunk size and
  /// never consumes RNG state.
  std::uint64_t test_id = 0;
};

/// Draws the whole workload up front. The RNG consumption order is exactly
/// the historical analytic loop's — per second one poisson draw, then per
/// test: record, duration, domain, offset — so a given seed produces the
/// identical test sequence for both backends, for any chunk size, and for
/// pre-refactor runs. Chunking slices this list after the fact; it never
/// touches the draw order.
std::vector<Arrival> generate_workload(std::span<const dataset::TestRecord> population,
                                       const swift::ModelRegistry& registry,
                                       const FleetSimConfig& config) {
  std::vector<Arrival> workload;
  // The hourly weights are normalised, so days * tests_per_day is the exact
  // Poisson mean of the draw; eight standard deviations of headroom make a
  // regrow vanishingly rare.
  const double expected = config.days * config.tests_per_day;
  workload.reserve(static_cast<std::size_t>(expected + 8.0 * std::sqrt(expected) + 16.0));
  core::Rng rng(config.seed);
  const auto weights = dataset::hourly_test_weights();
  double weight_sum = 0.0;
  for (double w : weights) weight_sum += w;

  // Geographic assignment: contiguous server ranges per IXP domain.
  const auto placement = place_servers(config.server_count);
  const auto domains = ixp_domains();
  std::vector<double> domain_shares;
  std::vector<std::size_t> domain_first;
  std::size_t next_server = 0;
  for (std::size_t d = 0; d < domains.size(); ++d) {
    domain_shares.push_back(domains[d].demand_share);
    domain_first.push_back(next_server);
    next_server += placement.servers_per_domain[d];
  }

  std::int64_t second_index = 0;
  for (int day = 0; day < config.days; ++day) {
    for (int hour = 0; hour < 24; ++hour) {
      const double arrivals_per_second =
          config.tests_per_day * weights[static_cast<std::size_t>(hour)] / weight_sum /
          3600.0;
      for (int second = 0; second < 3600; ++second, ++second_index) {
        const auto new_tests = rng.poisson(arrivals_per_second);
        for (std::int64_t t = 0; t < new_tests; ++t) {
          const auto& rec = population[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(population.size()) - 1))];
          Arrival arrival;
          arrival.second = second_index;
          arrival.tech = rec.tech;
          arrival.isp = rec.isp;
          arrival.truth_mbps = rec.bandwidth_mbps;
          arrival.rate_mbps =
              settled_probing_rate(registry.model(rec.tech), rec.bandwidth_mbps);
          arrival.n_servers = std::min<std::size_t>(
              config.server_count,
              swift::SwiftestClient::servers_needed(arrival.rate_mbps,
                                                    config.server_uplink_mbps));
          arrival.duration_s = rng.bernoulli(0.25) ? 2 : 1;  // ~1.2 s average
          const auto domain = rng.weighted_index(domain_shares);
          const std::size_t domain_size =
              std::max<std::size_t>(1, placement.servers_per_domain[domain]);
          const auto offset = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(domain_size) - 1));
          arrival.first_server =
              (domain_first[domain] + offset) % config.server_count;
          arrival.test_id = static_cast<std::uint64_t>(workload.size());
          workload.push_back(arrival);
        }
      }
    }
  }
  return workload;
}

/// A chunk's health log. The dimension keys a test lands under beyond "all"
/// — its tech, ISP and first server — are interned into the log by name;
/// tech and ISP ids are cached here and the server key is formatted on the
/// stack, so recording a test builds no strings.
struct ChunkHealth {
  using SampleLog = obs::health::SampleLog;

  SampleLog log;

  void record_test(const Arrival& a, double duration_s, double data_mb,
                   double deviation) {
    SampleLog::TestEntry e;
    e.duration_s = duration_s;
    e.data_mb = data_mb;
    e.deviation = deviation;
    e.dims[0] = cached(tech_ids[static_cast<std::size_t>(a.tech)],
                       [&] { return dataset::dimension_key(a.tech); });
    e.dims[1] = cached(isp_ids[static_cast<std::size_t>(a.isp)],
                       [&] { return dataset::dimension_key(a.isp); });
    obs::health::ServerKeyBuffer key;
    e.dims[2] = log.intern(obs::health::server_dimension(a.first_server, key));
    log.record_test(e);
  }

 private:
  std::array<std::optional<SampleLog::DimId>, dataset::kAllTechs.size()> tech_ids{};
  std::array<std::optional<SampleLog::DimId>, dataset::kAllIsps.size()> isp_ids{};

  SampleLog::DimId cached(std::optional<SampleLog::DimId>& id, const auto& key) {
    if (!id) id = log.intern(key());
    return *id;
  }
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

void finish_result(FleetSimResult& result, std::uint64_t overload_seconds,
                   std::uint64_t total_seconds) {
  std::sort(result.busy_window_utilization.begin(),
            result.busy_window_utilization.end());
  result.summary = stats::summarize(result.busy_window_utilization);
  result.p99 = stats::quantile_sorted(result.busy_window_utilization, 0.99);
  result.p999 = stats::quantile_sorted(result.busy_window_utilization, 0.999);
  result.share_leq_45 =
      1.0 - stats::fraction_above(result.busy_window_utilization, 45.0);
  result.overload_seconds_share =
      total_seconds == 0 ? 0.0
                         : static_cast<double>(overload_seconds) /
                               static_cast<double>(total_seconds);
}

/// Rotating spill sinks for one chunk's hub (obs/spill.hpp). The writers
/// must outlive the chunk run; the merge collects their segment paths in
/// (chunk, segment) order.
struct ChunkSpill {
  std::unique_ptr<obs::SpillWriter> trace;
  std::unique_ptr<obs::SpillWriter> spans;

  void attach(obs::Hub& hub, const std::string& dir, std::size_t chunk) {
    if (dir.empty()) return;
    trace = std::make_unique<obs::SpillWriter>(dir, "trace", chunk);
    spans = std::make_unique<obs::SpillWriter>(dir, "spans", chunk);
    hub.tracer.set_spill(
        [w = trace.get()](const obs::TraceEvent* events, std::size_t n) {
          w->write_trace_segment(events, n);
        });
    hub.spans.set_spill(
        [w = spans.get()](const obs::span::SpanRecord* records, std::size_t n) {
          w->write_span_segment(records, n);
        });
  }
};

/// Concatenates every chunk's spill segments — chunk order, then rotation
/// order within a chunk, so the result is independent of --jobs — into
/// <dir>/<stream>.spill.jsonl. No-op when nothing spilled.
void concat_spill(const std::vector<ChunkSpill>& spills, bool trace_stream,
                  const std::string& dir) {
  std::vector<std::string> paths;
  for (const ChunkSpill& s : spills) {
    const obs::SpillWriter* w = trace_stream ? s.trace.get() : s.spans.get();
    if (w == nullptr) continue;
    paths.insert(paths.end(), w->segment_paths().begin(),
                 w->segment_paths().end());
  }
  if (paths.empty()) return;
  const std::string out = dir + (trace_stream ? "/trace.spill.jsonl" : "/spans.spill.jsonl");
  std::string error;
  if (!obs::concat_segments(paths, out, &error)) {
    obs::logf(obs::LogLevel::kWarn, "fleet_sim: spill concat failed: %s",
              error.c_str());
  }
}

/// Sums every writer's rotation accounting into the result's spill fields,
/// so the run manifest can report spill volume without holding the writers.
void accumulate_spill(const std::vector<ChunkSpill>& spills,
                      FleetSimResult& result) {
  for (const ChunkSpill& s : spills) {
    if (s.trace != nullptr) {
      result.spill_trace_segments += s.trace->segments();
      result.spill_trace_bytes += s.trace->bytes_written();
      result.spill_ok = result.spill_ok && s.trace->ok();
    }
    if (s.spans != nullptr) {
      result.spill_span_segments += s.spans->segments();
      result.spill_span_bytes += s.spans->bytes_written();
      result.spill_ok = result.spill_ok && s.spans->ok();
    }
  }
}

/// The footprint model SampleSchedule::plan degrades against: store
/// capacities and per-test record sizes, never RSS, so the degradation
/// schedule is host-independent (and, being precomputed over the global
/// draw order, partition-independent).
obs::SampleSchedule::CostModel sample_cost_model(const FleetSimConfig& config) {
  obs::SampleSchedule::CostModel model;
  if (config.obs != nullptr) {
    model.base_bytes = static_cast<std::uint64_t>(config.obs->tracer.capacity()) *
                       sizeof(obs::TraceEvent);
    if (config.backend == FleetBackend::kPacket) {
      // A packet test leaves O(hundreds) of protocol events and O(dozens)
      // of spans; the constants only shape the degradation cadence.
      model.sampled_test_bytes = 256 * sizeof(obs::TraceEvent) +
                                 24 * sizeof(obs::span::SpanRecord);
    } else {
      // Analytic: two fleet.test trace events plus one span per sampled test.
      model.sampled_test_bytes =
          2 * sizeof(obs::TraceEvent) + sizeof(obs::span::SpanRecord);
    }
  }
  if (config.health != nullptr) model.per_test_bytes = 160;
  return model;
}

/// A fresh hub shaped like the parent but with a bounded trace ring, so a
/// run of many small chunks cannot multiply the parent's ring size by the
/// chunk count. Analytic chunks emit at most two events per test, so
/// 4 * chunk_size + slack never wraps (no drop-order dependence).
std::unique_ptr<obs::Hub> make_chunk_hub(const obs::Hub& like,
                                         std::size_t trace_capacity) {
  auto hub = std::make_unique<obs::Hub>(
      std::min(like.tracer.capacity(), trace_capacity), like.spans.capacity());
  hub->tracer.set_category_mask(like.tracer.category_mask());
  return hub;
}

// ---------------------------------------------------------------------------
// The chunk pipeline both backends run through
// ---------------------------------------------------------------------------

/// How the drawn workload splits into chunks of consecutive draws.
struct ChunkPlan {
  std::span<const Arrival> workload;
  std::size_t chunk_size = kDefaultChunkSize;
  std::size_t jobs = 1;
  const obs::SampleSchedule* schedule = nullptr;  // null: no sampling

  [[nodiscard]] std::size_t count() const {
    return (workload.size() + chunk_size - 1) / chunk_size;
  }
  /// Chunk c holds the draws [lo(c), hi(c)).
  [[nodiscard]] std::size_t lo(std::size_t c) const { return c * chunk_size; }
  [[nodiscard]] std::size_t hi(std::size_t c) const {
    return std::min(workload.size(), lo(c) + chunk_size);
  }
  [[nodiscard]] std::span<const Arrival> arrivals(std::size_t c) const {
    return workload.subspan(lo(c), hi(c) - lo(c));
  }
};

/// What every chunk produces, whatever the backend: its test count, health
/// samples, sampled observability and self-telemetry.
struct ChunkBase {
  std::uint64_t tests = 0;
  ChunkHealth health;
  bool want_health = false;
  /// Chunk-local observability accumulator; null when the run exports none.
  std::unique_ptr<obs::Hub> hub;
  ChunkSpill spill;
  // Metrics snapshots in draw order (one per packet test, one per analytic
  // chunk). Metrics must merge as a flat left fold over these — not over
  // chunk hubs — because gauge adds and histogram `sum` accumulation are
  // floating-point: folding per-chunk partials of per-test data would make
  // the result depend on where the chunk boundaries fall.
  std::vector<obs::MetricsSnapshot> metric_snaps;
  obs::ShardTelemetry telemetry;
};

/// Builds one output per chunk, each with the hub `make_hub` returns (null
/// for none) and its spill sinks, then runs `run_chunk` over every chunk on
/// the work-stealing pool, stamping each chunk's self-telemetry as it ends.
template <typename Chunk>
std::vector<Chunk> run_chunks(
    const ChunkPlan& plan, const FleetSimConfig& config,
    const std::function<std::unique_ptr<obs::Hub>()>& make_hub,
    const std::function<void(std::span<const Arrival>, Chunk&)>& run_chunk) {
  std::vector<Chunk> chunks(plan.count());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    Chunk& out = chunks[c];
    out.want_health = config.health != nullptr;
    out.hub = make_hub();
    if (out.hub != nullptr) out.spill.attach(*out.hub, config.obs_spill_dir, c);
  }
  exec::run_tasks(
      chunks.size(), plan.jobs,
      [&](std::size_t c) {
        const auto t0 = std::chrono::steady_clock::now();
        Chunk& out = chunks[c];
        run_chunk(plan.arrivals(c), out);
        obs::ShardTelemetry& t = out.telemetry;
        t.shard = c;
        t.wall_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        t.tests = out.tests;
        t.health_dropped = out.health.log.dropped();
        t.sample_degradations =
            plan.schedule != nullptr
                ? plan.schedule->degradations_in(plan.lo(c), plan.hi(c))
                : 0;
        if (out.hub != nullptr) {
          t.trace_dropped = out.hub->tracer.dropped();
          t.trace_spilled = out.hub->tracer.spilled();
          t.span_dropped = out.hub->spans.dropped();
          t.span_spilled = out.hub->spans.spilled();
        }
        if (config.resource != nullptr) {
          config.resource->record_shard(t);
          config.resource->note_shard_done();
          config.resource->sample_usage();
        }
      },
      config.hostprof);
  return chunks;
}

/// Folds every chunk's observability into config.obs: component-wise in
/// chunk order (one host-time phase per component), then `fleet_series`
/// emits whatever series only the merged result can produce, then the stores
/// canonicalize — chunk concatenation order (and chunk-local span ids)
/// depend on the partition, the content order does not, so after this the
/// artifacts render byte-identically for every chunk size (DESIGN.md §12,
/// §15) — and the spill segments concatenate.
template <typename Chunk>
void merge_obs(std::vector<Chunk>& chunks, const FleetSimConfig& config,
               const std::function<void()>& fleet_series, FleetSimResult& result) {
  obs::hostprof::Timeline* host_tl = main_timeline(config);
  // The merge target can itself rotate: its segments take the index one
  // past the last chunk, so concat order stays (chunk, segment).
  ChunkSpill merge_spill;
  merge_spill.attach(*config.obs, config.obs_spill_dir, chunks.size());
  {
    const obs::hostprof::HostScope scope(host_tl, "merge.tracer");
    for (const Chunk& chunk : chunks) {
      if (chunk.hub != nullptr) config.obs->tracer.merge_from(chunk.hub->tracer);
    }
  }
  {
    const obs::hostprof::HostScope scope(host_tl, "merge.metrics");
    for (const Chunk& chunk : chunks) {
      for (const obs::MetricsSnapshot& snap : chunk.metric_snaps) {
        config.obs->metrics.merge_from(snap);
      }
    }
  }
  {
    const obs::hostprof::HostScope scope(host_tl, "merge.spans");
    for (const Chunk& chunk : chunks) {
      if (chunk.hub != nullptr) config.obs->spans.merge_from(chunk.hub->spans);
    }
  }
  if (fleet_series) fleet_series();
  {
    const obs::hostprof::HostScope scope(host_tl, "merge.canonicalize");
    config.obs->tracer.sort_canonical();
    config.obs->spans.sort_canonical();
  }
  const obs::hostprof::HostScope scope(host_tl, "spill.io");
  std::vector<ChunkSpill> spills;
  for (Chunk& chunk : chunks) spills.push_back(std::move(chunk.spill));
  spills.push_back(std::move(merge_spill));
  concat_spill(spills, /*trace_stream=*/true, config.obs_spill_dir);
  concat_spill(spills, /*trace_stream=*/false, config.obs_spill_dir);
  accumulate_spill(spills, result);
}

/// Folds every chunk's health log, then `tail` (the merge's own egress
/// samples), into config.health on up to `jobs` lanes, one owner lane per
/// cell (obs/health/sample_log.hpp). Chunks hold consecutive draws, so log
/// order IS the global draw order and every cell sees exactly the sequence a
/// single serial pass would feed it — bit-identical health for any (chunk,
/// jobs). The lanes run unprofiled, so exec.run and the worker stats keep
/// describing the chunk pool; the fold's host time is samplelog.replay.
template <typename Chunk>
void fold_health(const std::vector<Chunk>& chunks, const obs::health::SampleLog& tail,
                 const FleetSimConfig& config, std::size_t jobs) {
  if (config.health == nullptr) return;
  const obs::hostprof::HostScope scope(main_timeline(config), "samplelog.replay");
  std::vector<const obs::health::SampleLog*> logs;
  logs.reserve(chunks.size() + 1);
  for (const Chunk& chunk : chunks) logs.push_back(&chunk.health.log);
  logs.push_back(&tail);
  const obs::health::LogFold fold(logs, *config.health, jobs);
  exec::run_tasks(fold.lanes(), jobs, [&](std::size_t lane) { fold.run_lane(lane); });
}

/// A log for the merge's egress samples: unbounded, since dropping any would
/// change the health report.
obs::health::SampleLog egress_log() {
  return obs::health::SampleLog(std::numeric_limits<std::size_t>::max());
}

// ---------------------------------------------------------------------------
// Analytic backend
// ---------------------------------------------------------------------------

/// One analytic chunk's output: health samples and sampled observability for
/// its consecutive slice of draws. The numeric load accounting is NOT here —
/// floating-point sums are not associative, so per-chunk partials would tie
/// the result bits to the partition; compute_analytic_load runs once, over
/// the whole workload, at merge. The hub is null unless sampling or a budget
/// is active — legacy analytic runs emit nothing.
using AnalyticChunk = ChunkBase;

void run_analytic_chunk(std::span<const Arrival> arrivals,
                        const FleetSimConfig& config,
                        const obs::SampleSchedule* schedule, AnalyticChunk& out) {
  for (const Arrival& a : arrivals) {
    ++out.tests;
    if (config.resource != nullptr) config.resource->add_tests(1);
    if (out.hub != nullptr &&
        (schedule == nullptr || schedule->sampled(a.test_id))) {
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
    }
    if (out.want_health) {
      out.health.log.note_arrival(static_cast<double>(a.second));
      // Data usage at the settled probing rate for the test's duration. No
      // estimator in the closed form: deviation is the model-coverage proxy
      // — zero whenever the settled rate covers the client's truth.
      out.health.record_test(
          a, static_cast<double>(a.duration_s),
          a.rate_mbps * static_cast<double>(a.duration_s) / 8.0,
          bts::deviation(std::min(a.rate_mbps, a.truth_mbps), a.truth_mbps));
    }
  }
  if (out.hub != nullptr) out.metric_snaps.push_back(out.hub->metrics.snapshot());
}

/// The closed-form load accounting, over the full workload in draw order.
/// One serial pass — the bit-exact historical accumulation order, so the
/// result is a pure function of (config, seed) with no partition anywhere
/// in sight. Cheaper in total work than the per-shard scans it replaces:
/// those walked the whole period once per shard.
struct AnalyticLoad {
  std::vector<double> window_load;  // [window * server_count + server]
  std::vector<double> second_load;  // requested fleet load per second
};

AnalyticLoad compute_analytic_load(std::span<const Arrival> arrivals,
                                   const FleetSimConfig& config) {
  AnalyticLoad out;
  const Period period = sim_period(config);
  out.window_load.assign(
      static_cast<std::size_t>(period.windows) * config.server_count, 0.0);
  out.second_load.assign(static_cast<std::size_t>(period.seconds), 0.0);

  std::vector<std::vector<std::pair<int, double>>> active(config.server_count);
  std::size_t active_entries = 0;
  std::size_t next_arrival = 0;
  for (std::int64_t second = 0; second < period.seconds; ++second) {
    if (active_entries == 0) {
      // Idle: nothing contributes load until the next arrival, and zero
      // seconds are already materialized, so jump straight there.
      if (next_arrival >= arrivals.size()) break;
      if (arrivals[next_arrival].second > second) {
        second = arrivals[next_arrival].second;
      }
      if (second >= period.seconds) break;
    }
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].second == second) {
      const Arrival& a = arrivals[next_arrival++];
      for (std::size_t s = 0; s < a.n_servers; ++s) {
        active[(a.first_server + s) % config.server_count].emplace_back(
            a.duration_s, a.rate_mbps / static_cast<double>(a.n_servers));
        ++active_entries;
      }
    }
    const std::int64_t w =
        config.window_seconds > 0 ? second / config.window_seconds : period.windows;
    double second_total = 0.0;
    for (std::size_t s = 0; s < config.server_count; ++s) {
      double load = 0.0;
      for (auto& [remaining, mbps] : active[s]) {
        load += mbps;
        --remaining;
      }
      const std::size_t before = active[s].size();
      std::erase_if(active[s], [](const auto& e) { return e.first <= 0; });
      active_entries -= before - active[s].size();
      if (load > 0.0 && w < period.windows) {
        out.window_load[static_cast<std::size_t>(w) * config.server_count + s] +=
            load;
      }
      second_total += load;
    }
    out.second_load[static_cast<std::size_t>(second)] = second_total;
  }
  return out;
}

FleetSimResult merge_analytic(std::vector<AnalyticChunk>& chunks,
                              const AnalyticLoad& load,
                              const FleetSimConfig& config, std::size_t jobs) {
  FleetSimResult result;
  const Period period = sim_period(config);
  const double fleet_capacity =
      config.server_uplink_mbps * static_cast<double>(config.server_count);

  for (const AnalyticChunk& chunk : chunks) result.tests_simulated += chunk.tests;

  std::uint64_t overload_seconds = 0;
  for (double second : load.second_load) {
    if (second > fleet_capacity) ++overload_seconds;
  }

  if (config.obs != nullptr && !chunks.empty() && chunks[0].hub != nullptr) {
    merge_obs(chunks, config, {}, result);
  }

  // Busy windows in the historical emission order: window-major, then server.
  obs::health::SampleLog egress = egress_log();
  for (std::int64_t w = 0; w < period.windows; ++w) {
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const double window_sum =
          load.window_load[static_cast<std::size_t>(w) * config.server_count + s];
      const double util = 100.0 * window_sum /
                          static_cast<double>(config.window_seconds) /
                          config.server_uplink_mbps;
      if (util > 0.0) {
        result.busy_window_utilization.push_back(util);
        // Busy windows only, matching Fig 26's utilization distribution.
        if (config.health != nullptr) {
          egress.record_egress_utilization(static_cast<std::uint32_t>(s), util);
        }
      }
    }
  }
  fold_health(chunks, egress, config, jobs);

  finish_result(result, overload_seconds,
                static_cast<std::uint64_t>(period.seconds));
  return result;
}

// ---------------------------------------------------------------------------
// Packet backend
// ---------------------------------------------------------------------------

/// One packet chunk's output. Every test in the chunk runs in its own
/// isolated testbed (seeded by the test's global draw index), so a chunk is
/// a pure function of its slice of draws: per-(window, server) delivered
/// bytes and per-server protocol counters are *integers* that sum exactly —
/// in any order — at merge. That is what makes the packet artifacts
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
                     const FleetSimConfig& config, bool sampled_test,
                     bool count_sampled, bool sampled_mode,
                     std::int64_t windows_total, PacketChunk& out) {
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
  // test for the draw-order fold at merge (see ChunkBase::metric_snaps).
  // Trace events skip the per-test hub: a sampled test records straight into
  // the chunk ring (tests in a chunk run one after another, so the ring sees
  // the same events in the same order a per-test fold would give it, and its
  // spill sink sees every overflow), and an unsampled test traces nothing.
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

  ChunkHealth* health = out.want_health ? &out.health : nullptr;
  netsim::ClientContext& ctx = testbed.client(0);
  // Whole-test sampling: keyed on the global draw index, so the decision is
  // identical for every chunk size and jobs value. Every span this test's
  // client (or the wire protocol under it) would begin becomes a no-op when
  // unsampled.
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
  // sum exactly at merge. The chain self-terminates once the test is done
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
    if (health != nullptr) health->log.note_arrival(static_cast<double>(a.second));
    if (config.resource != nullptr) config.resource->add_tests(1);
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
        health->record_test(a, core::to_seconds(r.total_duration()),
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
    // Fold this test's spans into the chunk accumulator now and bank the
    // metrics snapshot for the merge-time draw-order fold.
    out.hub->spans.merge_from(test_hub->spans);
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

void run_packet_chunk(std::span<const Arrival> arrivals,
                      const swift::ModelRegistry& registry,
                      const FleetSimConfig& config,
                      const obs::SampleSchedule* schedule, PacketChunk& out) {
  const std::int64_t windows_total = sim_period(config).windows;
  out.server_accepted.assign(config.server_count, 0);
  out.server_probe_bytes.assign(config.server_count, 0);
  out.metric_snaps.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    const bool sampled = schedule == nullptr || schedule->sampled(a.test_id);
    const bool count_sampled =
        schedule != nullptr && sampled && schedule->denominator_at(a.test_id) > 1;
    run_packet_test(a, registry, config, sampled, count_sampled,
                    /*sampled_mode=*/schedule != nullptr, windows_total, out);
  }
}

FleetSimResult merge_packet(std::vector<PacketChunk>& chunks,
                            const FleetSimConfig& config, std::size_t jobs) {
  FleetSimResult result;
  const Period period = sim_period(config);
  const double window_capacity_mbit =
      config.server_uplink_mbps * static_cast<double>(config.window_seconds);

  // Integer sums, commutative and associative: the merged matrices are
  // exactly partition-independent, no canonical summation order needed.
  std::vector<std::int64_t> delivered(
      static_cast<std::size_t>(period.windows) * config.server_count, 0);
  std::vector<std::uint64_t> accepted(config.server_count, 0);
  std::vector<std::int64_t> probe_bytes(config.server_count, 0);
  for (const PacketChunk& chunk : chunks) {
    result.tests_simulated += chunk.tests;
    for (const PacketChunk::WindowDelta& d : chunk.deltas) {
      delivered[static_cast<std::size_t>(d.window) * config.server_count +
                d.server] += d.bytes;
    }
    for (std::size_t s = 0; s < chunk.server_accepted.size(); ++s) {
      accepted[s] += chunk.server_accepted[s];
      probe_bytes[s] += chunk.server_probe_bytes[s];
    }
  }

  const auto util_of = [&](std::int64_t w, std::size_t s) {
    const std::int64_t bytes =
        delivered[static_cast<std::size_t>(w) * config.server_count + s];
    return 100.0 * static_cast<double>(bytes) * 8.0 / 1e6 / window_capacity_mbit;
  };

  if (config.obs != nullptr) {
    // Fleet-level series are a function of the merged byte matrix, so they
    // are emitted here — once, partition-free — rather than inside any
    // chunk: one egress_util sample per (window, server) on the global
    // grid, and the busy-window histogram.
    merge_obs(chunks, config, [&] {
      const obs::hostprof::HostScope scope(main_timeline(config), "merge.windows");
      const bool wants_fleet = config.obs->tracer.wants(obs::Category::kFleet);
      for (std::int64_t w = 0; w < period.windows; ++w) {
        const core::SimTime ts = (w + 1) * config.window_seconds * core::seconds(1);
        for (std::size_t s = 0; s < config.server_count; ++s) {
          const double util = util_of(w, s);
          if (util > 0.0) {
            config.obs->metrics
                .histogram("fleet.window_utilization",
                           {5.0, 15.0, 30.0, 45.0, 60.0, 80.0, 95.0})
                .observe(util);
          }
          if (wants_fleet) {
            config.obs->tracer.record(ts, obs::Category::kFleet,
                                      obs::EventKind::kCounter,
                                      "fleet.egress_util", s, util);
          }
        }
      }
    }, result);
  }

  // Busy windows, overload, and per-server egress health from the merged
  // matrix, window-major — the historical emission order.
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
      }
    }
    // Fleet egress effectively saturated (the overload proxy).
    if (window_total >= 98.0 * static_cast<double>(config.server_count)) {
      ++overloaded_windows;
    }
  }
  fold_health(chunks, egress, config, jobs);

  // Protocol-level per-server load balance (sessions, probe egress), from
  // the integer sums.
  if (config.health != nullptr) {
    for (std::size_t s = 0; s < config.server_count; ++s) {
      const std::string dims[] = {"server:" + std::to_string(s)};
      config.health->record("server_sessions",
                            static_cast<double>(accepted[s]), dims);
      config.health->record("server_probe_mb",
                            static_cast<double>(probe_bytes[s]) / 1e6, dims);
    }
  }

  finish_result(
      result,
      overloaded_windows * static_cast<std::uint64_t>(config.window_seconds),
      static_cast<std::uint64_t>(period.seconds));
  return result;
}

}  // namespace

FleetSimResult simulate_fleet(std::span<const dataset::TestRecord> population,
                              const swift::ModelRegistry& registry,
                              const FleetSimConfig& config) {
  FleetSimResult result;
  if (population.empty() || config.server_count == 0) return result;
  obs::hostprof::Timeline* host_tl = main_timeline(config);

  const auto run_start = std::chrono::steady_clock::now();

  // The sampling base: salted with the run seed; the budget is GLOBAL (the
  // degradation schedule is planned over the whole draw order, so no
  // per-partition split exists to leak the partition into the sampled set).
  obs::SamplingPolicy base_policy = config.sample;
  base_policy.set_salt(config.seed);
  if (config.obs_budget_mb > 0) {
    base_policy.set_budget_bytes(config.obs_budget_mb * 1024ull * 1024ull);
  }
  const bool sampling_active =
      base_policy.enabled() || config.obs_budget_mb > 0;

  std::vector<Arrival> workload;
  {
    const obs::hostprof::HostScope scope(host_tl, "workload.gen");
    workload = generate_workload(population, registry, config);
  }

  ChunkPlan plan;
  plan.workload = workload;
  plan.chunk_size = config.chunk == 0 ? kDefaultChunkSize : config.chunk;
  plan.jobs = exec::resolve_jobs(config.jobs);
  if (config.hostprof != nullptr) config.hostprof->set_run_shape(plan.count(), plan.jobs);
  if (config.resource != nullptr) config.resource->begin_run(plan.count());

  std::optional<obs::SampleSchedule> schedule;
  if (sampling_active) {
    schedule = obs::SampleSchedule::plan(workload.size(), base_policy,
                                         sample_cost_model(config));
    plan.schedule = &*schedule;
  }

  if (config.backend == FleetBackend::kPacket && config.server_uplink_mbps > 0.0) {
    // The chunk hub is an accumulator: sampled tests trace straight into its
    // ring, and spans fold in from per-test hubs after each test while
    // metrics stay banked per test (run_packet_test). Its span store never
    // records live, so no sink or sampled mode setup is needed — merge_from
    // never re-emits through sinks.
    auto chunks = run_chunks<PacketChunk>(
        plan, config,
        [&] {
          return config.obs != nullptr ? obs::Hub::mirror_of(*config.obs) : nullptr;
        },
        [&](std::span<const Arrival> arrivals, PacketChunk& out) {
          run_packet_chunk(arrivals, registry, config, plan.schedule, out);
        });
    const obs::hostprof::HostScope merge_scope(host_tl, "merge");
    result = merge_packet(chunks, config, plan.jobs);
  } else {
    // The analytic backend emits observability only under sampling (or a
    // budget): its legacy contract is "no obs emission", and the sampled
    // fleet.test events/spans are the artifact the byte-identity gate pins.
    auto chunks = run_chunks<AnalyticChunk>(
        plan, config,
        [&]() -> std::unique_ptr<obs::Hub> {
          if (config.obs == nullptr || !sampling_active) return nullptr;
          auto hub = make_chunk_hub(*config.obs, 4 * plan.chunk_size + 1024);
          // Analytic fleet.test spans root their trace trees explicitly, so
          // sampled mode stays off; only the id-leaking tracer mirror goes.
          hub->spans.set_sinks(nullptr, &hub->metrics);
          return hub;
        },
        [&](std::span<const Arrival> arrivals, AnalyticChunk& out) {
          run_analytic_chunk(arrivals, config, plan.schedule, out);
        });
    // The closed-form load accounting runs once, serially, over the whole
    // workload: floating-point sums are order-sensitive, so this is the one
    // place the numbers are allowed to accumulate — the historical order,
    // bit-identical for every (chunk, jobs).
    AnalyticLoad load;
    {
      const obs::hostprof::HostScope scope(host_tl, "replay.numeric");
      load = compute_analytic_load(workload, config);
    }
    const obs::hostprof::HostScope merge_scope(host_tl, "merge");
    result = merge_analytic(chunks, load, config, plan.jobs);
  }
  if (config.resource != nullptr) {
    config.resource->finish_run(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - run_start)
                                    .count());
  }
  return result;
}

}  // namespace swiftest::deploy
