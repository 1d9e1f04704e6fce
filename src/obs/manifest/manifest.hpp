// Run manifests: the machine-readable record of what a run *was*.
//
// `swiftest-cli test|run|fleet --obs-dir DIR` always writes a RunManifest to
// DIR/manifest.jsonl: the resolved configuration, build identity, a
// content hash + row count for every artifact the run wrote, each obs
// layer's summarize_for_manifest() values, the run's headline bench values,
// and its SLO verdicts. Manifests are the inputs of `swiftest-cli obs diff`
// (obs/diff/diff.hpp): two manifests — plus the span files they point at,
// for the stage attribution — are enough to explain *what changed and why*
// between two runs, the cross-run discipline the measurement platform's
// month-over-month analyses (paper §3, §6) are built on.
//
// Serialized form is JSONL, one self-describing record per line, so CI can
// validate the schema line by line (the same pattern as PROF JSONL):
//
//   {"type":"manifest","version":1,"tool":"swiftest-cli","command":"fleet",
//    "build":"<git sha>"}
//   {"type":"config","key":"seed","value":"99"}
//   {"type":"artifact","name":"health","path":"...","bytes":N,"rows":N,
//    "hash":"fnv1a64:0123456789abcdef"}
//   {"type":"summary","layer":"trace","values":{"events":N,...}}
//   {"type":"bench","name":"util_median_pct","value":37.5}
//   {"type":"slo","name":"...","dimension":"all","stat":"p95",
//    "observed":1.2,"status":"pass"}
//   {"type":"host","key":"jobs","value":4}
//
// Determinism contract: everything except "host" lines and artifact "path"
// fields is a pure function of (command, config, seed) — two runs of the
// same fleet-day at different --jobs emit manifests whose config, summary,
// bench, slo, and artifact hash/rows/bytes lines are byte-identical. Host
// lines carry wall-clock and worker-count facts and are never gated.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swiftest::obs::manifest {

inline constexpr int kManifestVersion = 1;

/// One artifact the run wrote, identified by a stable layer name ("health",
/// "trace_jsonl", "spans", "metrics", "prof", ...) — the differ matches
/// artifacts across runs by this name, never by path.
struct ArtifactRecord {
  std::string name;
  std::string path;
  std::uint64_t bytes = 0;
  std::uint64_t rows = 0;  // newline count — lines for JSONL, rows for md
  std::string hash;        // "fnv1a64:<16 hex digits>" over the full content
};

/// One SLO verdict carried into the manifest so a diff can flag a run that
/// started violating an objective without re-evaluating the spec.
struct SloVerdict {
  std::string name;
  std::string dimension;
  std::string stat;
  double observed = 0.0;
  std::string status;  // "pass" | "skipped" | "violated"
};

/// Flat (key, value) list in deterministic order — the common currency of
/// config, summary, bench, and host lines.
using ValueList = std::vector<std::pair<std::string, double>>;

struct RunManifest {
  int version = kManifestVersion;
  std::string tool = "swiftest-cli";
  std::string command;
  std::string build;  // git-describe-style build identity, "unknown" outside git
  /// Resolved deterministic configuration (seed, shards, backend, ...) —
  /// never --jobs or anything host-dependent (those are host lines).
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<ArtifactRecord> artifacts;
  /// Layer name -> summarize_for_manifest() values ("trace", "metrics",
  /// "spans", "health", "hostprof").
  std::map<std::string, ValueList> summaries;
  /// Headline result values ("tests_simulated", "util_median_pct", ...) in
  /// insertion order.
  ValueList bench;
  std::vector<SloVerdict> slos;
  /// Host-side facts (wall_ms, jobs): informational, never diff-gated.
  ValueList host;

  [[nodiscard]] const ArtifactRecord* find_artifact(std::string_view name) const;
  [[nodiscard]] const ValueList* find_summary(std::string_view layer) const;
  [[nodiscard]] std::optional<std::string> config_value(std::string_view key) const;
};

inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ULL;

/// FNV-1a 64-bit over a byte string — the manifest's content hash — carried
/// on from `hash`, so content hashes block by block. Not cryptographic;
/// collision-resistant enough to certify "same artifact" in CI, with zero
/// dependencies and deterministic output everywhere.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes,
                                    std::uint64_t hash = kFnv1a64Basis);

/// "fnv1a64:<16 lowercase hex digits>" of `bytes`.
[[nodiscard]] std::string content_hash(std::string_view bytes);

/// An artifact's bytes, newline rows and content hash, fed block by block
/// by its writer as the blocks go out, so no artifact is read back to be
/// recorded.
struct ArtifactDigest {
  std::uint64_t bytes = 0;
  std::uint64_t rows = 0;
  std::uint64_t hash = kFnv1a64Basis;

  void update(std::string_view block);
  [[nodiscard]] ArtifactRecord record(std::string name, std::string path) const;
};

/// Writes the manifest as JSONL (deterministic rendering, obs/json
/// numbers; lines in the fixed order manifest/config/artifact/summary/
/// bench/slo/host).
void write_manifest_jsonl(const RunManifest& manifest, std::ostream& out);

/// Parses a manifest document. Returns nullopt (with a line-numbered reason
/// in `error`) on malformed JSON, an unknown record type, or a missing
/// required field — the same checks the CI schema gate runs.
[[nodiscard]] std::optional<RunManifest> parse_manifest_jsonl(
    std::string_view text, std::string* error = nullptr);

/// Loads and parses a manifest file from disk.
[[nodiscard]] std::optional<RunManifest> load_manifest_file(
    const std::string& path, std::string* error = nullptr);

}  // namespace swiftest::obs::manifest
