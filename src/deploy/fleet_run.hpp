// The fleet simulation's shared run, included only by the fleet_*.cpp files:
// the workload draw, the health dimension table, and the chunk stream and
// tail both backends run through. Each backend lives in its own file
// (fleet_analytic.cpp, fleet_packet.cpp); fleet_sim.cpp picks one.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/rng.hpp"
#include "dataset/profiles.hpp"
#include "dataset/taxonomy.hpp"
#include "deploy/fleet_sim.hpp"
#include "deploy/placement.hpp"
#include "deploy/trace_stream.hpp"
#include "exec/exec.hpp"
#include "obs/health/sample_log.hpp"
#include "swiftest/client.hpp"

namespace swiftest::deploy::detail {

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

/// The simulated period and its whole utilization windows.
struct Period {
  std::int64_t seconds = 0;
  std::int64_t windows = 0;
};

inline Period sim_period(const FleetSimConfig& config) {
  Period period;
  period.seconds = static_cast<std::int64_t>(config.days) * 24 * 3600;
  period.windows = period.seconds / kUtilizationWindowSeconds;
  return period;
}

/// A log for the run's egress samples: unbounded, since dropping any would
/// change the health report.
inline obs::health::SampleLog egress_log() {
  return obs::health::SampleLog({}, std::numeric_limits<std::size_t>::max());
}

/// One chunk of consecutive draws, whatever the backend, from its draw until
/// every health lane has folded it: its arrivals, test count, health logs,
/// sampled observability and self-telemetry.
struct ChunkBase {
  std::vector<Arrival> arrivals;
  std::uint64_t tests = 0;
  obs::health::SampleLog log;
  obs::health::LogFold::Committed committed;  // `log`, once committed
  /// The busy windows its commit closed, as egress samples (under health).
  obs::health::SampleLog egress = egress_log();
  obs::health::LogFold::Committed egress_committed;
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
           bool obs_merge);

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
  /// test count, `commit_chunk` (the backend's share: it closes the windows
  /// the chunk made final into the result and the chunk's egress log), the
  /// metrics fold into config.obs and the trace stream's commit, the health
  /// logs' commit — and then folded by every health lane, all while later
  /// chunks are drawn and run (exec::run_stream). A chunk's state is freed
  /// when its slot is redrawn, so memory is O(jobs x chunk). `make_hub`
  /// returns each chunk's hub (null for none).
  template <typename Chunk>
  void stream(const std::function<std::unique_ptr<obs::Hub>()>& make_hub,
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
      if (fold) out.log = obs::health::SampleLog(dims_.keys());
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
      sort_busy_runs();
      const obs::hostprof::HostScope scope(host_tl, "merge");
      if (trace) merge_obs(chunk);
      if (fold) {
        fold->commit(chunk.log, chunk.committed);
        fold->commit(chunk.egress, chunk.egress_committed);
      }
    };
    stages.lanes = fold ? fold->lanes() : 0;
    stages.fold = [&](std::size_t lane, std::size_t c) {
      Chunk& chunk = slot(c);
      fold->fold(lane, chunk.committed);
      fold->fold(lane, chunk.egress_committed);
    };
    result.peak_live_chunks = exec::run_stream(jobs, stages, config.hostprof);
  }

  /// The tail both backends end with, in one `merge` phase: `close` (timed
  /// as `close_phase`) closes the windows still open into a tail egress log
  /// (null without health) and returns the run's overloaded seconds; then
  /// the trace stream emits what it holds, the tail log folds on every lane,
  /// the lanes drain, and the busy windows sort into the result's statistics.
  FleetSimResult finish(const char* close_phase,
                        const std::function<std::uint64_t(obs::health::SampleLog*)>& close);

  /// The run's health dimension table.
  [[nodiscard]] const DimensionTable& dims() const noexcept { return dims_; }

 private:
  static constexpr std::size_t kSortRun = std::size_t{1} << 16;

  void merge_obs(ChunkBase& chunk);

  /// Sorts every full run of kSortRun busy windows not yet sorted: called
  /// at each commit as the vector grows, so the calling thread sorts while
  /// lanes fold and the tail only merges.
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

  WorkloadDraw draw_;
  DimensionTable dims_;
  std::size_t chunks_ = 0;
  std::vector<std::size_t> sorted_runs_ = {0};  // sorted busy-window run bounds
};

FleetSimResult run_analytic(std::span<const dataset::TestRecord> population,
                            const swift::ModelRegistry& registry,
                            const FleetSimConfig& config);

FleetSimResult run_packet(std::span<const dataset::TestRecord> population,
                          const swift::ModelRegistry& registry,
                          const FleetSimConfig& config);

}  // namespace swiftest::deploy::detail
