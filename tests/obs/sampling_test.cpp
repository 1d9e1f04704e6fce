// Deterministic whole-test sampling (obs/sampling.hpp): SamplingPolicy parses
// `--obs-sample`, and SampleSchedule — the one keep/drop path a run takes —
// samples a pure function of (test id, salt, denominator), with no wall
// clock, chunk or thread input, and degrades the denominator at fixed
// checkpoints instead of letting the observability footprint grow without
// bound.
#include "obs/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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
}

TEST(SamplingPolicyParse, RejectsMalformedSpecs) {
  // Only keep-1-in-N is expressible: numerators other than 1, zero
  // denominators, negatives, and junk all fail parse (the CLI exits 2).
  for (const char* spec :
       {"", "0", "1/0", "2/8", "1/", "/8", "1/x", "-1", "1/-4", "8.5",
        "1/99999999999999999999999"}) {
    EXPECT_FALSE(SamplingPolicy::parse(spec).has_value()) << spec;
  }
}

/// A schedule with no budget: one step at `denominator`.
SampleSchedule unbudgeted(std::uint64_t denominator, std::uint64_t salt) {
  return SampleSchedule::plan(64 * 1024, denominator, salt, 0, {});
}

TEST(SampleSchedule, SampledIsPureAndSaltSensitive) {
  const SampleSchedule schedule = unbudgeted(8, 42);
  std::vector<bool> first;
  for (std::uint64_t key = 0; key < 4096; ++key) first.push_back(schedule.sampled(key));
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(schedule.sampled(key), first[key]) << "decision must be pure";
  }

  // A different salt (run seed) selects a different subset.
  const SampleSchedule other = unbudgeted(8, 43);
  std::size_t differs = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    if (other.sampled(key) != first[key]) ++differs;
  }
  EXPECT_GT(differs, 0u);
}

TEST(SampleSchedule, KeepRateTracksDenominator) {
  const SampleSchedule schedule = unbudgeted(8, 7);
  std::size_t kept = 0;
  constexpr std::uint64_t kKeys = 64 * 1024;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (schedule.sampled(key)) ++kept;
  }
  // splitmix64 avalanches sequential keys; 1/8 ± 20% over 64k draws.
  const double rate = static_cast<double>(kept) / kKeys;
  EXPECT_GT(rate, 0.8 / 8.0);
  EXPECT_LT(rate, 1.2 / 8.0);
}

TEST(SampleSchedule, MatchesSplitmix64Definition) {
  // The decision is documented as splitmix64(key ^ salt) % N == 0; pin that
  // so the sampled subset never silently changes between versions (stored
  // artifacts reference it).
  static_assert(splitmix64(0) == 0xE220A8397B1DCDAFull);
  const SampleSchedule schedule = unbudgeted(8, 99);
  for (std::uint64_t key = 0; key < 512; ++key) {
    EXPECT_EQ(schedule.sampled(key), splitmix64(key ^ 99u) % 8 == 0);
  }
}

TEST(SampleSchedule, KeepEverythingWithoutBudgetIsDisabled) {
  const SampleSchedule schedule = unbudgeted(1, 5);
  EXPECT_FALSE(schedule.enabled());
  EXPECT_EQ(schedule.degradations(), 0u);
  for (std::uint64_t key = 0; key < 512; ++key) EXPECT_TRUE(schedule.sampled(key));
  // Denominator 0 reads as 1.
  EXPECT_FALSE(unbudgeted(0, 5).enabled());
}

TEST(SampleSchedule, BudgetDoublesOnlyAtCheckpoints) {
  // Every test costs 1 byte against a 1-byte budget, so every checkpoint
  // after the first interval is over budget and doubles, once.
  constexpr std::uint64_t kInterval = SampleSchedule::kCheckpointInterval;
  SampleSchedule::CostModel model;
  model.per_test_bytes = 1;
  const SampleSchedule schedule =
      SampleSchedule::plan(3 * kInterval + 1, 4, 11, 1, model);
  EXPECT_TRUE(schedule.enabled());
  EXPECT_EQ(schedule.degradations(), 3u);
  EXPECT_EQ(schedule.denominator_at(0), 4u);
  EXPECT_EQ(schedule.denominator_at(kInterval - 1), 4u);
  EXPECT_EQ(schedule.denominator_at(kInterval), 8u);
  EXPECT_EQ(schedule.denominator_at(2 * kInterval - 1), 8u);
  EXPECT_EQ(schedule.denominator_at(2 * kInterval), 16u);
  EXPECT_EQ(schedule.denominator_at(3 * kInterval), 32u);
  // Past the last test the last step still holds.
  EXPECT_EQ(schedule.denominator_at(UINT64_MAX), 32u);

  // Each decision uses the denominator in force at its test.
  for (const std::uint64_t key : {kInterval - 1, kInterval, 3 * kInterval}) {
    EXPECT_EQ(schedule.sampled(key),
              splitmix64(key ^ 11u) % schedule.denominator_at(key) == 0)
        << key;
  }

  // Half-open attribution: a step counts in [begin, end) iff its first test
  // lies there.
  EXPECT_EQ(schedule.degradations_in(0, kInterval), 0u);
  EXPECT_EQ(schedule.degradations_in(0, kInterval + 1), 1u);
  EXPECT_EQ(schedule.degradations_in(kInterval, 2 * kInterval), 1u);
  EXPECT_EQ(schedule.degradations_in(kInterval + 1, 2 * kInterval), 0u);
  EXPECT_EQ(schedule.degradations_in(kInterval, 3 * kInterval + 1), 3u);
  EXPECT_EQ(schedule.degradations_in(2 * kInterval, 2 * kInterval), 0u);
}

TEST(SampleSchedule, WithinBudgetOrWithoutOneNeverDegrades) {
  SampleSchedule::CostModel model;
  model.per_test_bytes = 1;
  constexpr std::uint64_t kTests = 4 * SampleSchedule::kCheckpointInterval;
  // The last checkpoint sees exactly `budget` bytes: at the budget is not
  // over it.
  constexpr std::uint64_t kBudget = 3 * SampleSchedule::kCheckpointInterval;
  const SampleSchedule at_budget = SampleSchedule::plan(kTests, 2, 3, kBudget, model);
  EXPECT_EQ(at_budget.degradations(), 0u);
  EXPECT_EQ(at_budget.denominator_at(kTests - 1), 2u);
  // The fixed base footprint counts against the budget too.
  model.base_bytes = kBudget;
  EXPECT_EQ(SampleSchedule::plan(kTests, 2, 3, kBudget, model).degradations(), 3u);
  // No budget: never degrades, however large the footprint.
  model.per_test_bytes = UINT64_MAX / (2 * kTests);
  EXPECT_EQ(SampleSchedule::plan(kTests, 2, 3, 0, model).degradations(), 0u);
}

TEST(SampleSchedule, SampledTestBytesArePaidOnlyByKeptTests) {
  // Budget sized so the kept tests of the first interval fit exactly: at
  // 1/8 about 512 of 4096 tests are kept, so a per-kept-test cost stays
  // within 1024 bytes where a per-test cost of the same size would not.
  constexpr std::uint64_t kInterval = SampleSchedule::kCheckpointInterval;
  SampleSchedule::CostModel kept_only;
  kept_only.sampled_test_bytes = 1;
  EXPECT_EQ(SampleSchedule::plan(kInterval + 1, 8, 7, 1024, kept_only).degradations(),
            0u);
  SampleSchedule::CostModel every_test;
  every_test.per_test_bytes = 1;
  EXPECT_EQ(SampleSchedule::plan(kInterval + 1, 8, 7, 1024, every_test).degradations(),
            1u);
}

TEST(SampleSchedule, DegradationCapsAtMaxDenominator) {
  constexpr std::uint64_t kInterval = SampleSchedule::kCheckpointInterval;
  SampleSchedule::CostModel model;
  model.base_bytes = 2;  // over a 1-byte budget at every checkpoint
  const SampleSchedule schedule =
      SampleSchedule::plan(4 * kInterval, SamplingPolicy::kMaxDenominator / 2, 0, 1,
                           model);
  // One doubling reaches the cap; later checkpoints stop doubling and stop
  // counting.
  EXPECT_EQ(schedule.degradations(), 1u);
  EXPECT_EQ(schedule.denominator_at(kInterval), SamplingPolicy::kMaxDenominator);
  EXPECT_EQ(schedule.denominator_at(4 * kInterval - 1),
            SamplingPolicy::kMaxDenominator);
}

TEST(SampleSchedule, ExtendingInStepsPlansWhatOnePlanDoes) {
  // A run extends its schedule chunk by chunk as it draws; the walk is
  // causal, so any split — odd steps, steps across checkpoints, empty and
  // backwards steps — plans exactly the one-shot schedule.
  constexpr std::uint64_t kInterval = SampleSchedule::kCheckpointInterval;
  constexpr std::uint64_t kTests = 5 * kInterval + 3;
  SampleSchedule::CostModel model;
  model.base_bytes = 100;
  model.sampled_test_bytes = 40;
  model.per_test_bytes = 2;
  const SampleSchedule whole = SampleSchedule::plan(kTests, 2, 9, 60'000, model);
  ASSERT_GT(whole.degradations(), 0u);
  for (const std::uint64_t step : {1u, 37u, 4096u, 5000u}) {
    SampleSchedule stepped(2, 9, 60'000, model);
    for (std::uint64_t n = 0; n < kTests; n = std::min(kTests, n + step)) {
      stepped.extend(n);
      stepped.extend(n / 2);  // never plans backwards
    }
    stepped.extend(kTests);
    EXPECT_EQ(stepped.degradations(), whole.degradations()) << "step " << step;
    for (std::uint64_t t = 0; t < kTests; ++t) {
      ASSERT_EQ(stepped.sampled(t), whole.sampled(t)) << "step " << step << " test " << t;
      ASSERT_EQ(stepped.denominator_at(t), whole.denominator_at(t));
    }
    EXPECT_EQ(stepped.degradations_in(kInterval, 3 * kInterval),
              whole.degradations_in(kInterval, 3 * kInterval));
  }
}

}  // namespace
}  // namespace swiftest::obs
