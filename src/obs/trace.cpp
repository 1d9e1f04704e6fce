#include "obs/trace.hpp"

#include <algorithm>

namespace swiftest::obs {

const char* to_string(Category category) noexcept {
  switch (category) {
    case Category::kScheduler:
      return "scheduler";
    case Category::kLink:
      return "link";
    case Category::kTransport:
      return "transport";
    case Category::kProtocol:
      return "protocol";
    case Category::kFleet:
      return "fleet";
  }
  return "unknown";
}

std::optional<std::uint32_t> parse_category_mask(std::string_view csv,
                                                 std::string* bad_token) {
  std::uint32_t mask = 0;
  while (!csv.empty()) {
    const auto comma = csv.find(',');
    const std::string_view token = csv.substr(0, comma);
    csv = comma == std::string_view::npos ? std::string_view{} : csv.substr(comma + 1);
    if (token.empty()) continue;
    if (token == "all") {
      mask |= kAllCategories;
    } else if (token == "scheduler") {
      mask |= static_cast<std::uint32_t>(Category::kScheduler);
    } else if (token == "link") {
      mask |= static_cast<std::uint32_t>(Category::kLink);
    } else if (token == "transport") {
      mask |= static_cast<std::uint32_t>(Category::kTransport);
    } else if (token == "protocol") {
      mask |= static_cast<std::uint32_t>(Category::kProtocol);
    } else if (token == "fleet") {
      mask |= static_cast<std::uint32_t>(Category::kFleet);
    } else {
      if (bad_token != nullptr) *bad_token = std::string(token);
      return std::nullopt;
    }
  }
  return mask;
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void Tracer::ensure_ring() { ring_.resize(capacity_); }

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  if (size_ == 0) return out;
  out.reserve(size_);
  // Oldest event: `head_` when full (the slot about to be overwritten),
  // index 0 otherwise.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::span<TraceEvent> Tracer::retained() {
  if (size_ == ring_.size() && head_ != 0) {
    std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
  }
  return {ring_.data(), size_};
}

}  // namespace swiftest::obs
