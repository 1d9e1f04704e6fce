// Deterministic whole-test sampling for fleet-scale observability.
//
// At fleet scale (the paper's platform ran 23.6M tests) retaining every
// test's trace events and spans is neither affordable nor useful; what the
// artifacts must stay is *representative* and *reproducible*. Two types
// split the job:
//
// - SamplingPolicy is the parsed `--obs-sample 1/N` value and nothing else.
// - SampleSchedule makes every keep/drop decision a run takes. It is planned
//   in global test order as the run draws its workload, from the base
//   denominator, a salt (the run seed), an optional memory budget and a
//   per-test cost model. Each decision is a splitmix64 hash of the global
//   test index, never of wall clock, chunk or thread id, so the sampled set
//   is a pure function of (seed, workload, budget) and a sampled fleet-day
//   emits byte-identical artifacts for every `--chunk` / `--jobs`.
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

/// The requested keep-1-in-N rate, as parsed from `--obs-sample`.
class SamplingPolicy {
 public:
  /// Keep-everything policy (denominator 1).
  SamplingPolicy() = default;

  /// Parses "1/N" or plain "N" into a keep-1-in-N policy ("1/1" and "1"
  /// keep everything). Returns nullopt for malformed specs, N == 0 or
  /// N > kMaxDenominator.
  [[nodiscard]] static std::optional<SamplingPolicy> parse(std::string_view spec);

  void set_denominator(std::uint64_t denominator) noexcept {
    denominator_ = denominator == 0 ? 1 : denominator;
  }
  [[nodiscard]] std::uint64_t denominator() const noexcept { return denominator_; }

  /// True when the policy discards anything (denominator > 1).
  [[nodiscard]] bool enabled() const noexcept { return denominator_ > 1; }

  /// "1/N" — the spec string recorded in artifact meta.
  [[nodiscard]] std::string describe() const;

  static constexpr std::uint64_t kMaxDenominator = 1ull << 32;

 private:
  std::uint64_t denominator_ = 1;
};

/// The keep/drop schedule for one run.
///
/// With a global memory budget and a partition-free executor, degradation
/// cannot be a live decision made inside whichever chunk happens to cross
/// the budget first — that would make the sampled set depend on the
/// partition. Instead the schedule walks the workload once, in global test
/// order, modelling the observability footprint the run will accumulate,
/// and doubles the denominator at fixed checkpoints where that model
/// exceeds the budget. The per-test decisions are then a pure function of
/// (test index, denominator, salt, budget, cost model); the run stamps each
/// drawn test with its decision.
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

  /// An empty schedule — no test planned yet — starting at 1/`denominator`
  /// (0 reads as 1), hashing with `salt`. With `budget_bytes` > 0, every
  /// kCheckpointInterval tests the modeled footprint is checked against the
  /// budget and, when over it, the denominator doubles (at most once per
  /// checkpoint, never past SamplingPolicy::kMaxDenominator).
  SampleSchedule(std::uint64_t denominator, std::uint64_t salt,
                 std::uint64_t budget_bytes, const CostModel& model);

  /// The schedule for `test_count` tests: the constructor, then extend().
  [[nodiscard]] static SampleSchedule plan(std::uint64_t test_count,
                                           std::uint64_t denominator,
                                           std::uint64_t salt,
                                           std::uint64_t budget_bytes,
                                           const CostModel& model);

  /// Plans the tests from the last one planned up to `test_count`, in
  /// global test order; the queries below hold for the tests planned. The
  /// walk is causal — each checkpoint sees only the tests before it — so
  /// extending in any number of steps plans exactly what one plan() call
  /// would, and a run can extend the schedule as it draws its workload.
  void extend(std::uint64_t test_count);

  /// Whether the test at global index `test_id` retains observability:
  /// splitmix64(test_id ^ salt) % denominator_at(test_id) == 0.
  [[nodiscard]] bool sampled(std::uint64_t test_id) const noexcept {
    return keeps(test_id, salt_, denominator_at(test_id));
  }

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
  /// The one keep/drop rule: plan() and sampled() both call it.
  [[nodiscard]] static bool keeps(std::uint64_t test_id, std::uint64_t salt,
                                  std::uint64_t denominator) noexcept {
    return denominator <= 1 || splitmix64(test_id ^ salt) % denominator == 0;
  }

  std::vector<Step> steps_;          // from_test ascending; steps_[0].from_test == 0
  std::uint64_t salt_ = 0;
  std::uint64_t degradations_ = 0;
  std::uint64_t budget_bytes_ = 0;
  CostModel model_;
  std::uint64_t planned_ = 0;
  std::uint64_t footprint_ = 0;  // modeled bytes of the tests planned so far
};

}  // namespace swiftest::obs
