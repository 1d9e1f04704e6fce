#include "obs/sampling.hpp"

#include <algorithm>

namespace swiftest::obs {
namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

}  // namespace

std::optional<SamplingPolicy> SamplingPolicy::parse(std::string_view spec) {
  std::string_view denom = spec;
  if (const auto slash = spec.find('/'); slash != std::string_view::npos) {
    if (spec.substr(0, slash) != "1") return std::nullopt;
    denom = spec.substr(slash + 1);
  }
  std::uint64_t n = 0;
  if (!parse_u64(denom, n) || n == 0 || n > kMaxDenominator) return std::nullopt;
  SamplingPolicy policy;
  policy.set_denominator(n);
  return policy;
}

std::string SamplingPolicy::describe() const {
  return "1/" + std::to_string(denominator_);
}

SampleSchedule::SampleSchedule(std::uint64_t denominator, std::uint64_t salt,
                               std::uint64_t budget_bytes, const CostModel& model)
    : steps_{Step{0, denominator == 0 ? 1 : denominator}},
      salt_(salt),
      budget_bytes_(budget_bytes),
      model_(model) {}

SampleSchedule SampleSchedule::plan(std::uint64_t test_count,
                                    std::uint64_t denominator, std::uint64_t salt,
                                    std::uint64_t budget_bytes,
                                    const CostModel& model) {
  SampleSchedule schedule(denominator, salt, budget_bytes, model);
  schedule.extend(test_count);
  return schedule;
}

void SampleSchedule::extend(std::uint64_t test_count) {
  std::uint64_t denom = steps_.back().denominator;
  for (std::uint64_t t = planned_; t < test_count; ++t) {
    if (t > 0 && t % kCheckpointInterval == 0 && budget_bytes_ != 0 &&
        footprint_ + model_.base_bytes > budget_bytes_ &&
        denom < SamplingPolicy::kMaxDenominator) {
      denom *= 2;
      steps_.push_back(Step{t, denom});
      ++degradations_;
    }
    if (keeps(t, salt_, denom)) footprint_ += model_.sampled_test_bytes;
    footprint_ += model_.per_test_bytes;
  }
  planned_ = std::max(planned_, test_count);
}

std::uint64_t SampleSchedule::denominator_at(std::uint64_t test_id) const noexcept {
  std::uint64_t denom = 1;
  for (const Step& step : steps_) {
    if (step.from_test > test_id) break;
    denom = step.denominator;
  }
  return denom;
}

std::uint64_t SampleSchedule::degradations_in(std::uint64_t begin_test,
                                              std::uint64_t end_test) const noexcept {
  std::uint64_t count = 0;
  for (std::size_t i = 1; i < steps_.size(); ++i) {
    if (steps_[i].from_test >= begin_test && steps_[i].from_test < end_test) ++count;
  }
  return count;
}

}  // namespace swiftest::obs
