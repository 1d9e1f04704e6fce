// Deterministic whole-test sampling (obs/sampling.hpp): SamplingPolicy parses
// `--obs-sample` and is the one keep/drop rule a run applies — a pure
// function of (test id, salt, denominator), with no wall clock, chunk or
// thread input.
#include "obs/sampling.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace swiftest::obs {
namespace {

TEST(SamplingPolicyParse, AcceptsOneOverNAndPlainN) {
  const auto one_in_8 = SamplingPolicy::parse("1/8");
  ASSERT_TRUE(one_in_8.has_value());
  EXPECT_EQ(one_in_8->denominator(), 8u);
  EXPECT_TRUE(one_in_8->enabled());
  EXPECT_EQ(one_in_8->describe(), "1/8");

  const auto plain = SamplingPolicy::parse("16");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->denominator(), 16u);

  // "1/1" and "1" are the explicit keep-everything spellings.
  for (const char* spec : {"1/1", "1"}) {
    const auto keep_all = SamplingPolicy::parse(spec);
    ASSERT_TRUE(keep_all.has_value()) << spec;
    EXPECT_FALSE(keep_all->enabled()) << spec;
    EXPECT_EQ(keep_all->denominator(), 1u) << spec;
  }

  // The largest denominator is accepted; one past it is not (below).
  const auto max = SamplingPolicy::parse("1/4294967296");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->denominator(), SamplingPolicy::kMaxDenominator);
}

TEST(SamplingPolicyParse, RejectsMalformedSpecs) {
  // Only keep-1-in-N is expressible: numerators other than 1, zero
  // denominators, negatives, and junk all fail parse (the CLI exits 2).
  for (const char* spec :
       {"", "0", "1/0", "2/8", "1/", "/8", "1/x", "-1", "1/-4", "8.5",
        "1/99999999999999999999999", "+8", " 8", "1/8 ", "1/4294967297"}) {
    EXPECT_FALSE(SamplingPolicy::parse(spec).has_value()) << spec;
  }
}

SamplingPolicy one_in(std::uint64_t denominator) {
  SamplingPolicy policy;
  policy.set_denominator(denominator);
  return policy;
}

TEST(SamplingPolicy, SampledIsPureAndSaltSensitive) {
  const SamplingPolicy policy = one_in(8);
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 4096; ++key) first.push_back(policy.sampled(key, 42));
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(policy.sampled(key, 42), first[key]) << "decision must be pure";
  }

  // A different salt (run seed) selects a different subset.
  std::size_t differs = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    if (policy.sampled(key, 43) != first[key]) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

TEST(SamplingPolicy, KeepRateTracksDenominator) {
  const SamplingPolicy policy = one_in(8);
  std::size_t kept = 0;
  constexpr std::uint64_t kKeys = 64 * 1024;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (policy.sampled(key, 7)) ++kept;
  }
  // splitmix64 avalanches sequential keys; 1/8 ± 20% over 64k draws.
  const double rate = static_cast<double>(kept) / kKeys;
  EXPECT_GT(rate, 0.8 / 8.0);
  EXPECT_LT(rate, 1.2 / 8.0);
}

TEST(SamplingPolicy, MatchesSplitmix64Definition) {
  // The decision is documented as splitmix64(key ^ salt) % N == 0; pin that
  // so the sampled subset never silently changes between versions (stored
  // artifacts reference it).
  static_assert(splitmix64(0) == 0xE220A8397B1DCDAFull);
  const SamplingPolicy policy = one_in(8);
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(policy.sampled(key, 99), splitmix64(key ^ 99u) % 8 == 0);
  }
}

TEST(SamplingPolicy, KeepEverythingIsDisabled) {
  const SamplingPolicy policy = one_in(1);
  EXPECT_FALSE(policy.enabled());
  for (std::uint64_t key = 0; key < 512; ++key) EXPECT_TRUE(policy.sampled(key, 5));
  // Denominator 0 reads as 1.
  EXPECT_FALSE(one_in(0).enabled());
  EXPECT_EQ(one_in(0).denominator(), 1u);
}

}  // namespace
}  // namespace swiftest::obs
