// Rendering and analysis of host-time profiles (obs/hostprof/hostprof.hpp).
//
// Three renderings of one ProfData:
//   * PROF JSONL (`--obs prof`) — one self-describing JSON object per line
//     ("type": meta | timeline | worker | phase | interval), the lossless
//     machine format `swiftest-cli profile report` and the CI schema gate
//     consume.
//   * Chrome trace_event JSON (`--obs prof_trace`) — the host-time
//     timeline with one named track per thread (main + each pool worker),
//     loadable in Perfetto / chrome://tracing.
//   * The attribution report — parallel efficiency, serial fraction, Amdahl
//     bounds, per-chunk imbalance and per-worker pulls, and a ranked phase
//     table, as markdown.
//
// Everything here is host-time presentation: these files are never compared
// byte-for-byte and never feed deterministic artifacts.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/hostprof/hostprof.hpp"

namespace swiftest::obs::hostprof {

/// Writes the PROF JSONL document: a meta line, then per timeline a
/// timeline line, an optional worker line, phase aggregate lines, and the
/// retained interval lines.
void write_prof_jsonl(const ProfData& data, std::ostream& out);

/// Writes the Chrome trace_event rendering: one metadata-named track per
/// timeline ("main", "worker 1", ...), one complete ("X") event per
/// retained interval.
void write_prof_chrome_trace(const ProfData& data, std::ostream& out);

/// Parses a PROF JSONL stream back into ProfData. Returns nullopt (with a
/// line-numbered reason in `error`) on malformed input, an unknown record
/// type, or a missing required field — the same checks the CI gate runs.
[[nodiscard]] std::optional<ProfData> read_prof_jsonl(std::istream& in,
                                                      std::string* error = nullptr);

/// File convenience wrapper over read_prof_jsonl.
[[nodiscard]] std::optional<ProfData> load_prof_file(const std::string& path,
                                                     std::string* error = nullptr);

/// One row of the ranked phase table (aggregated across every timeline, so
/// parallel phases — e.g. chunk.run summed over workers — can exceed 100% of
/// wall; that excess is exactly the parallelism).
struct PhaseRow {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  double pct_of_wall = 0.0;
};

struct WorkerRow {
  std::uint32_t tid = 0;
  WorkerStats stats;
};

struct ChunkRow {
  std::uint64_t chunk = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  // the timeline that executed it
};

/// The Amdahl attribution of one run. Definitions (DESIGN.md §13, §15):
///   pool_wall_ns     wall time of the calling thread's "exec.run" phase —
///                    the parallel region.
///   serial_ns        wall_ns - pool_wall_ns: everything only the calling
///                    thread does (workload gen, merge, canonicalize,
///                    sample-log replay, export).
///   busy_ns          Σ worker busy time (the parallelizable work).
///   serial_fraction  serial_ns / (serial_ns + busy_ns) — the Amdahl "s"
///                    over total work, not elapsed wall.
///   amdahl_max_speedup      1 / s (infinite when s == 0).
///   amdahl_speedup_at_jobs  (serial+busy) / (serial + busy/jobs): the
///                    speedup a perfectly balanced pool of `jobs` workers
///                    could reach given this serial tail.
///   parallel_efficiency     busy_ns / (workers * pool_wall_ns): how much of
///                    the pool's capacity did real work (1 - idle share).
///   shard_imbalance  max / mean of per-chunk wall times ("chunk.run").
///                    Workers take chunks from one shared queue, so a slow
///                    chunk never holds up a worker's queued ones: the name
///                    keeps the historical gate key, the unit is a chunk.
///   main_coverage    Σ depth-0 calling-thread intervals / wall — how much
///                    of the run the phase instrumentation accounts for
///                    (the CI gate requires >= 95%).
struct ProfReport {
  std::size_t chunks = 0;
  std::size_t jobs = 0;
  std::size_t workers = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t pool_wall_ns = 0;
  std::uint64_t serial_ns = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t idle_ns = 0;
  double parallel_efficiency = 0.0;
  double serial_fraction = 0.0;
  double amdahl_max_speedup = 0.0;
  double amdahl_speedup_at_jobs = 0.0;
  double shard_imbalance = 0.0;
  double main_coverage = 0.0;
  std::uint64_t intervals_dropped = 0;
  std::vector<PhaseRow> phases;          // ranked by total_ns descending
  std::vector<WorkerRow> worker_rows;    // tid ascending
  std::vector<ChunkRow> slowest_chunks;  // top slice, dur descending
};

/// Computes the attribution report from a profile.
[[nodiscard]] ProfReport analyze_prof(const ProfData& data);

/// Manifest summary of a host-time profile. Everything here is host time —
/// the RunManifest marks the hostprof layer informational, so these values
/// explain a wall-clock change without ever gating a diff.
[[nodiscard]] std::vector<std::pair<std::string, double>> summarize_for_manifest(
    const ProfData& data);

/// Renders the report as markdown ("# Host-time profile" ...).
void write_prof_report_markdown(const ProfReport& report, std::ostream& out);

/// The phase names run_stream records: the pool region on the calling
/// thread, per-chunk execution on workers, and every wait of the calling
/// thread, the final join included. Shared constants so recorder and
/// analyzer cannot drift apart.
inline constexpr const char* kPhasePool = "exec.run";
inline constexpr const char* kPhaseChunk = "chunk.run";
inline constexpr const char* kPhaseJoin = "pool.join";
/// run_stream's per-lane fold on a worker.
inline constexpr const char* kPhaseFold = "lane.fold";

}  // namespace swiftest::obs::hostprof
