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
#include <string>
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

/// How the fleet load is evaluated once the workload is drawn.
enum class FleetBackend {
  /// Closed-form accounting: each test contributes rate/n_servers to its
  /// servers for its duration. Fast; ignores queueing and protocol effects.
  kAnalytic,
  /// Packet-level replay: every test is a real WireClient probing real
  /// SwiftestServers through its own isolated netsim::Testbed, keyed by the
  /// test's global draw index — per-window delivered-byte deltas sum exactly
  /// at merge, so artifacts are partition-free. Cross-test egress contention
  /// is not modeled (each test sees dedicated servers). Orders of magnitude
  /// slower than analytic; use small workloads.
  kPacket,
};

struct FleetSimConfig {
  std::size_t server_count = 20;
  double server_uplink_mbps = 100.0;
  double tests_per_day = 10'000.0;
  int days = 7;
  /// Utilization aggregation window.
  int window_seconds = 10;
  std::uint64_t seed = 99;
  FleetBackend backend = FleetBackend::kAnalytic;
  /// Tests per execution chunk (0 = the default, 256). The drawn workload
  /// decomposes into bounded chunks of *consecutive* draws executed by the
  /// work-stealing pool (exec/exec.hpp); chunk outputs merge in canonical
  /// workload-index order. The partition-invariance contract: every
  /// deterministic artifact — result numbers, trace, spans, metrics, health —
  /// is a pure function of (config, seed), independent of this value and of
  /// `jobs`. Each test keys its own RNG stream (core::stream_seed of the
  /// test's global draw index), so chunk boundaries never shift a draw.
  std::size_t chunk = 0;
  /// Worker threads executing chunks (clamped to the chunk count); 1 runs
  /// every chunk inline on the calling thread, 0 means the hardware
  /// concurrency. Results and every artifact are independent of this value —
  /// it buys wall-clock time only.
  std::size_t jobs = 1;
  /// Optional observability hub, attached to the packet backend's scheduler
  /// for the run: per-test lifecycle traces, per-server egress-utilization
  /// samples, and fleet.* counters land here. Null disables instrumentation.
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
  /// run records per-thread phase timelines — workload.gen on the calling
  /// thread, exec.run + per-worker chunk.run via run_tasks, then
  /// replay.numeric (analytic) and merge.tracer / merge.metrics /
  /// merge.spans / merge.windows (packet) / merge.canonicalize / spill.io /
  /// samplelog.replay, all nested under one merge phase — plus
  /// per-worker busy/idle/steal accounting. Host time only: a non-null
  /// profiler never changes a single byte of the deterministic artifacts.
  obs::hostprof::HostProfiler* hostprof = nullptr;
  /// Deterministic whole-test observability sampling (DESIGN.md §12). When
  /// enabled (denominator > 1) and `obs` is attached, each test's trace
  /// events and spans are retained iff sampled(test_id) — test_id is the
  /// global workload draw index, so the sampled artifact is a pure function
  /// of (seed, workload) and byte-identical for every `jobs`, `chunk`
  /// combination (the merge canonicalizes event and span order). The salt
  /// is overridden with this config's seed. Disabled (1/1) keeps the
  /// retain-everything behavior.
  obs::SamplingPolicy sample;
  /// Global observability memory budget in MB; 0 = unlimited. The run plans
  /// a deterministic degradation schedule up front (obs::SampleSchedule):
  /// walking the workload in draw order, the sampling denominator doubles at
  /// the checkpoints where the modeled obs footprint would exceed the budget
  /// — recorded in obs.sample_degradations — instead of the run growing
  /// without bound. The plan depends only on (workload size, policy, budget,
  /// cost model): never on the partition, the thread schedule, or RSS.
  std::uint64_t obs_budget_mb = 0;
  /// Directory for rotating spill segments (must exist; empty disables
  /// spilling). Full trace rings and span stores flush whole segments here
  /// instead of dropping; the merge concatenates them in (chunk, segment)
  /// order into <dir>/trace.spill.jsonl and <dir>/spans.spill.jsonl.
  std::string obs_spill_dir;
  /// Optional resource self-telemetry: per-chunk occupancy/drop/spill
  /// counters and host wall/RSS measurements land here (obs/resource.hpp).
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
  /// Spill accounting summed over every chunk's writers plus the merge
  /// target (all zero when `--obs spill` is off). Deterministic — segment
  /// rotation depends on store capacity and event volume, never on --jobs —
  /// so these feed the run manifest's spill summaries.
  std::uint64_t spill_trace_segments = 0;
  std::uint64_t spill_trace_bytes = 0;
  std::uint64_t spill_span_segments = 0;
  std::uint64_t spill_span_bytes = 0;
  /// False if any spill segment or concat failed to land intact.
  bool spill_ok = true;
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
