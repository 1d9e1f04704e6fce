#include "obs/sampling.hpp"

#include <charconv>

namespace swiftest::obs {

std::optional<SamplingPolicy> SamplingPolicy::parse(std::string_view spec) {
  std::string_view denom = spec;
  if (const auto slash = spec.find('/'); slash != std::string_view::npos) {
    if (spec.substr(0, slash) != "1") return std::nullopt;
    denom = spec.substr(slash + 1);
  }
  // Whole-token and strict, like the CLI's numeric flags: no sign, no
  // space, no trailing junk, no overflow.
  std::uint64_t n = 0;
  const char* const end = denom.data() + denom.size();
  const auto [ptr, ec] = std::from_chars(denom.data(), end, n);
  if (ec != std::errc() || ptr != end || n == 0 || n > kMaxDenominator) {
    return std::nullopt;
  }
  SamplingPolicy policy;
  policy.set_denominator(n);
  return policy;
}

std::string SamplingPolicy::describe() const {
  return "1/" + std::to_string(denominator_);
}

}  // namespace swiftest::obs
