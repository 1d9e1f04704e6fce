// Fleet-load simulation for capacity planning (§5.2-§5.3).
//
// Replays a probing workload against a deployed server fleet: Poisson test
// arrivals following the diurnal intensity profile, each test probing at
// Swiftest's model-driven rate across ceil(rate/uplink) servers in the
// client's IXP domain, for ~1.2 s. Produces the per-(server, window)
// utilization distribution — the quantity Fig 26 reports and the margin
// check an operator runs before shrinking the fleet.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataset/record.hpp"
#include "obs/health/monitor.hpp"
#include "obs/hostprof/hostprof.hpp"
#include "obs/hub.hpp"
#include "obs/resource.hpp"
#include "obs/sampling.hpp"
#include "stats/descriptive.hpp"
#include "swiftest/model_registry.hpp"

namespace swiftest::deploy {

/// The utilization aggregation window: FleetSimResult::busy_window_utilization
/// holds one value per busy (server, window) on this grid.
inline constexpr int kUtilizationWindowSeconds = 10;

/// How the fleet load is evaluated once the workload is drawn.
enum class FleetBackend {
  /// Closed-form accounting: each test contributes rate/n_servers to its
  /// servers for its duration. Fast; ignores queueing and protocol effects.
  kAnalytic,
  /// Packet-level replay: every test is a real WireClient probing real
  /// SwiftestServers through its own isolated netsim::Testbed, keyed by the
  /// test's global draw index — per-window delivered-byte deltas sum
  /// exactly as chunks commit, so artifacts are partition-free. Cross-test
  /// egress contention is not modeled (each test sees dedicated servers).
  /// Orders of magnitude slower than analytic; use small workloads.
  kPacket,
};

struct FleetSimConfig {
  std::size_t server_count = 20;
  double server_uplink_mbps = 100.0;
  double tests_per_day = 10'000.0;
  int days = 7;
  std::uint64_t seed = 99;
  FleetBackend backend = FleetBackend::kAnalytic;
  /// Tests per execution chunk (0 = the default, 256). The workload is
  /// drawn in chunks of *consecutive* draws that stream through a bounded
  /// ring (exec::run_stream): the calling thread draws, pool workers run,
  /// each chunk commits in draw order and health lanes fold it while later
  /// chunks are still drawn; its memory is freed once every lane passed it.
  /// The partition-invariance contract: every deterministic artifact —
  /// result numbers, trace, spans, metrics, health — is a pure function of
  /// (config, seed), independent of this value and of `jobs`. Each test
  /// keys its own RNG stream (core::stream_seed of the test's global draw
  /// index), so chunk boundaries never shift a draw.
  std::size_t chunk = 0;
  /// Pool workers running chunks and health lanes (never more than the
  /// chunks drawn); at most exec::stream_ring(jobs) = 8 * jobs chunks are
  /// alive at once. 1 runs the whole stream inline on the calling thread, 0
  /// means the hardware concurrency. Results and every artifact are
  /// independent of this value — it buys wall-clock time only.
  std::size_t jobs = 1;
  /// Optional observability hub, attached to the packet backend's scheduler
  /// for the run: per-test lifecycle traces, per-server egress-utilization
  /// samples, and fleet.* counters land here. Trace events and spans reach
  /// it as one canonical stream at each chunk's commit (trace_stream.hpp):
  /// whole into its sinks when set, else into its ring and store.
  obs::Hub* obs = nullptr;
  /// Optional health monitor: both backends stream the §5 operational
  /// signals into it — per-test duration, data usage, and deviation (keyed
  /// by tech/ISP/server dimensions) plus per-server busy-window egress
  /// utilization and the windowed test-arrival rate. The analytic backend
  /// has no estimator, so its deviation is the model-coverage proxy
  /// |min(rate, truth) - truth| / truth (0 whenever the settled probing
  /// rate covers the client). Null disables health aggregation.
  obs::health::HealthMonitor* health = nullptr;
  /// Optional thread-aware host-time profiler (obs/hostprof/). When set, the
  /// run records per-thread phase timelines — on the calling thread one
  /// exec.run over the chunk stream holding, per chunk, workload.gen, the
  /// windows the commit closes (replay.numeric, or merge.windows for packet)
  /// and merge (merge.tracer / merge.metrics / merge.spans when chunks carry
  /// hubs), and pool.join per wait; then one merge over the tail: the last
  /// windows, merge.tracer / merge.spans (the trace stream's last emission)
  /// and samplelog.replay. Workers record
  /// chunk.run and lane.fold plus busy/idle accounting, and the run shape
  /// (chunks, jobs) is stamped once the draw has ended. Host time only: a
  /// non-null profiler never changes a single byte of the deterministic
  /// artifacts.
  obs::hostprof::HostProfiler* hostprof = nullptr;
  /// Deterministic whole-test observability sampling (DESIGN.md §12): the
  /// keep-1-in-N rate. With `obs` attached, each test's trace events and
  /// spans are retained iff the policy samples its test_id — the global
  /// workload draw index — salted with `seed`, so the sampled artifact is a
  /// pure function of (seed, workload, N) and byte-identical for every
  /// `jobs`, `chunk` combination (the trace stream emits events and spans in
  /// canonical order). 1/1 keeps the retain-everything behavior.
  obs::SamplingPolicy sample;
  /// Optional resource self-telemetry: per-chunk occupancy/drop counters,
  /// the running chunk count while the draw goes, and host wall/RSS
  /// measurements land here (obs/resource.hpp).
  obs::ResourceMonitor* resource = nullptr;
};

struct FleetSimResult {
  /// Utilization (%) per busy (server, window); sorted ascending.
  std::vector<double> busy_window_utilization;
  stats::Summary summary;        // over the busy windows
  double p99 = 0.0;
  double p999 = 0.0;
  /// Fraction of busy windows at or below 45% utilization (the paper's
  /// headline sufficiency number).
  double share_leq_45 = 0.0;
  /// Fraction of seconds where requested load exceeded fleet capacity.
  double overload_seconds_share = 0.0;
  std::uint64_t tests_simulated = 0;
  /// Most chunks alive at once — drawn, not yet folded by every health
  /// lane: min(chunks, exec::stream_ring(jobs)), whatever the period, so the
  /// run's memory is O(jobs x chunk) plus the busy-window vector above.
  std::size_t peak_live_chunks = 0;
};

/// The probing rate Swiftest settles on for a client of the given capacity:
/// the model's mode ladder walked up until the rate covers the capacity.
[[nodiscard]] double settled_probing_rate(const stats::GaussianMixture& model,
                                          double truth_mbps);

/// Runs the fleet simulation. `population` supplies the client mix (tech and
/// ground-truth bandwidth are drawn from it uniformly).
[[nodiscard]] FleetSimResult simulate_fleet(std::span<const dataset::TestRecord> population,
                                            const swift::ModelRegistry& registry,
                                            const FleetSimConfig& config = {});

}  // namespace swiftest::deploy
