// Deterministic whole-test sampling for fleet-scale observability.
//
// At fleet scale (the paper's platform ran 23.6M tests) retaining every
// test's trace events and spans is neither affordable nor useful; what the
// artifacts must stay is *representative* and *reproducible*. A
// SamplingPolicy decides, per test, whether that test's observability is
// retained — keyed on a splitmix64 hash of a stable test identity (the
// global workload draw index, or a wire nonce), never on wall clock, shard
// index, or thread id — so the sampled set is a pure function of (seed,
// workload) and a `--obs-sample 1/N` fleet-day emits byte-identical sampled
// artifacts regardless of `--chunk` / `--jobs`.
//
// The policy also owns the memory-budget degradation rule: given a byte
// budget, note_footprint() doubles the sampling denominator (and counts the
// degradation) whenever the observed observability footprint exceeds the
// budget — the run keeps going with a sparser sample instead of OOMing.
// Degradations are keyed on the deterministic in-memory footprint of the
// observability stores, not on process RSS, so a given (workload, budget)
// degrades at the same points on every host.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace swiftest::obs {

/// splitmix64 finalizer: a fixed, platform-independent avalanche
/// permutation, so sampling decisions are documented as a pure function of
/// the key.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class SamplingPolicy {
 public:
  /// Keep-everything policy (denominator 1).
  SamplingPolicy() = default;

  /// Parses "1/N" or plain "N" into a keep-1-in-N policy ("1/1" and "1"
  /// keep everything). Returns nullopt for malformed specs or N == 0.
  [[nodiscard]] static std::optional<SamplingPolicy> parse(std::string_view spec);

  void set_denominator(std::uint64_t denominator) noexcept {
    denominator_ = denominator == 0 ? 1 : denominator;
  }
  [[nodiscard]] std::uint64_t denominator() const noexcept { return denominator_; }

  /// Salts the hash (set it to the run seed) so two runs with different
  /// seeds sample different test subsets.
  void set_salt(std::uint64_t salt) noexcept { salt_ = salt; }
  [[nodiscard]] std::uint64_t salt() const noexcept { return salt_; }

  /// True when the policy discards anything (denominator > 1).
  [[nodiscard]] bool enabled() const noexcept { return denominator_ > 1; }

  /// Whether the test identified by `key` is retained. Pure: depends only
  /// on (key, salt, current denominator).
  [[nodiscard]] bool sampled(std::uint64_t key) const noexcept {
    if (denominator_ <= 1) return true;
    return splitmix64(key ^ salt_) % denominator_ == 0;
  }

  /// Degradation budget in bytes; 0 disables degradation.
  void set_budget_bytes(std::uint64_t bytes) noexcept { budget_bytes_ = bytes; }
  [[nodiscard]] std::uint64_t budget_bytes() const noexcept { return budget_bytes_; }

  /// Reports the current observability footprint. If a budget is set and the
  /// footprint exceeds it, the denominator doubles (halving the retained
  /// fraction of *future* tests) and the degradation is counted. At most one
  /// degradation per call, so periodic checks ratchet down gradually instead
  /// of collapsing to nothing. Returns true when this call degraded.
  bool note_footprint(std::uint64_t bytes) noexcept {
    if (budget_bytes_ == 0 || bytes <= budget_bytes_) return false;
    if (denominator_ >= kMaxDenominator) return false;
    denominator_ *= 2;
    ++degradations_;
    return true;
  }

  /// Times note_footprint() doubled the denominator.
  [[nodiscard]] std::uint64_t degradations() const noexcept { return degradations_; }

  /// "1/N" — the spec string recorded in artifact meta.
  [[nodiscard]] std::string describe() const;

  static constexpr std::uint64_t kMaxDenominator = 1ull << 32;

 private:
  std::uint64_t denominator_ = 1;
  std::uint64_t salt_ = 0;
  std::uint64_t budget_bytes_ = 0;
  std::uint64_t degradations_ = 0;
};

/// The precomputed budget-degradation schedule for one run.
///
/// With a global memory budget and a partition-free executor, degradation can
/// no longer be a live decision made inside whichever shard happens to cross
/// its slice of the budget first — that would make the sampled set depend on
/// the partition. Instead plan() walks the workload once, in global test
/// order, modelling the observability footprint the run will accumulate and
/// doubling the denominator at the same deterministic checkpoints a serial
/// run would: the resulting per-test keep/drop decisions are a pure function
/// of (test count, base policy, budget, per-test cost model), so every chunk
/// asks the schedule instead of mutating a shared policy.
class SampleSchedule {
 public:
  /// A denominator step: tests with index >= from_test sample at 1/denominator
  /// (until the next step).
  struct Step {
    std::uint64_t from_test = 0;
    std::uint64_t denominator = 1;
  };

  /// Cost model for plan(): `base_bytes` is footprint that exists regardless
  /// of sampling (e.g. preallocated trace rings), `sampled_test_bytes` is
  /// paid only by retained tests, `per_test_bytes` by every test (health).
  struct CostModel {
    std::uint64_t base_bytes = 0;
    std::uint64_t sampled_test_bytes = 0;
    std::uint64_t per_test_bytes = 0;
  };

  /// Builds the schedule for `test_count` tests under `policy` (denominator,
  /// salt and budget are read from it; the policy itself is not mutated).
  /// Checkpoints every kCheckpointInterval tests mirror the legacy periodic
  /// note_footprint cadence.
  [[nodiscard]] static SampleSchedule plan(std::uint64_t test_count,
                                           const SamplingPolicy& policy,
                                           const CostModel& model);

  /// Whether the test at global index `test_id` retains observability.
  [[nodiscard]] bool sampled(std::uint64_t test_id) const noexcept;

  /// Denominator in force at `test_id`.
  [[nodiscard]] std::uint64_t denominator_at(std::uint64_t test_id) const noexcept;

  /// True when any test is dropped anywhere in the schedule.
  [[nodiscard]] bool enabled() const noexcept {
    return !steps_.empty() && (steps_.size() > 1 || steps_[0].denominator > 1);
  }

  /// Total budget degradations (denominator doublings) in the plan.
  [[nodiscard]] std::uint64_t degradations() const noexcept { return degradations_; }

  /// Degradations whose trigger checkpoint lies in [begin_test, end_test) —
  /// per-chunk telemetry attribution.
  [[nodiscard]] std::uint64_t degradations_in(std::uint64_t begin_test,
                                              std::uint64_t end_test) const noexcept;

  static constexpr std::uint64_t kCheckpointInterval = 4096;

 private:
  std::vector<Step> steps_;          // from_test ascending; steps_[0].from_test == 0
  std::uint64_t salt_ = 0;
  std::uint64_t degradations_ = 0;
};

}  // namespace swiftest::obs
