// Host-time spans the benchmark records around its calls into the library.
//
// A span has a name, a parent, and a [start, end) interval on the steady
// clock. Spans live in memory until the run ends; totals() folds them into
// per-name count, total and self time, where self time is the span's duration
// minus the part of it that its children cover. A null SpanLog* turns every
// Span into a no-op, so untraced runs pay one branch per boundary.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0xffffffffu;

  struct Record {
    std::string name;
    Id parent = kNone;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  struct Totals {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Steady-clock nanoseconds; the time base of every span.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// Opens a span under the innermost open one.
  Id begin(std::string name);
  void end(Id id);

  /// Adds a span that was timed elsewhere (e.g. a profiler phase).
  Id add(std::string name, Id parent, std::uint64_t start_ns, std::uint64_t end_ns);

  [[nodiscard]] Id current() const noexcept {
    return stack_.empty() ? kNone : stack_.back();
  }
  [[nodiscard]] std::map<std::string, Totals> totals() const;

 private:
  std::vector<Record> records_;
  std::vector<Id> stack_;
};

/// RAII span; no-op on a null log.
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) id_ = log_->begin(name);
  }
  ~Span() {
    if (log_ != nullptr) log_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] SpanLog::Id id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  SpanLog::Id id_ = SpanLog::kNone;
};

}  // namespace perfbench
