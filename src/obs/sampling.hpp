// Deterministic whole-test sampling for fleet-scale observability.
//
// At fleet scale (the paper's platform ran 23.6M tests) retaining every
// test's trace events and spans is neither affordable nor useful; what the
// artifacts must stay is *representative* and *reproducible*. SamplingPolicy
// is the parsed `--obs-sample 1/N` value and the one keep/drop rule a run
// applies: a splitmix64 hash of the test's global draw index and a salt (the
// run seed), never of wall clock, chunk or thread id, so the sampled set is a
// pure function of (seed, workload, N) and a sampled fleet-day emits
// byte-identical artifacts for every `--chunk` / `--jobs`.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

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

  /// Whether the test with global draw index `test_id` retains
  /// observability: splitmix64(test_id ^ salt) % N == 0 (always at N == 1).
  [[nodiscard]] bool sampled(std::uint64_t test_id, std::uint64_t salt) const noexcept {
    return denominator_ <= 1 || splitmix64(test_id ^ salt) % denominator_ == 0;
  }

  /// "1/N" — the spec string recorded in artifact meta.
  [[nodiscard]] std::string describe() const;

  static constexpr std::uint64_t kMaxDenominator = 1ull << 32;

 private:
  std::uint64_t denominator_ = 1;
};

}  // namespace swiftest::obs
