#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace perfbench {

std::uint64_t SpanLog::now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SpanLog::Id SpanLog::begin(std::string name) {
  const auto id = static_cast<Id>(records_.size());
  records_.push_back(Record{std::move(name), current(), now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::end(Id id) {
  records_[id].end_ns = now_ns();
  // Spans close innermost first; tolerate a missed close by unwinding to id.
  while (!stack_.empty()) {
    const Id top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

SpanLog::Id SpanLog::add(std::string name, Id parent, std::uint64_t start_ns,
                         std::uint64_t end_ns) {
  const auto id = static_cast<Id>(records_.size());
  records_.push_back(Record{std::move(name), parent, start_ns, end_ns});
  return id;
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  // Children's intervals per parent, clipped to the parent; their union is
  // the covered part, so overlapping children are not counted twice.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      records_.size());
  for (const Record& r : records_) {
    if (r.parent == kNone) continue;
    const Record& p = records_[r.parent];
    const std::uint64_t lo = std::max(r.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(r.end_ns, p.end_ns);
    if (hi > lo) children[r.parent].emplace_back(lo, hi);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::uint64_t dur = r.end_ns > r.start_ns ? r.end_ns - r.start_ns : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = 0;
    for (const auto& [lo, hi] : kids) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    Totals& t = out[r.name];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur > covered ? dur - covered : 0;
  }
  return out;
}

}  // namespace perfbench
