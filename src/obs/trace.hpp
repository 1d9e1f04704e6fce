// Deterministic simulation-time event tracer.
//
// A ring buffer of fixed-size trace records, each stamped with the simulated
// clock (never wall time), so two runs with the same seed produce
// byte-identical trace files. Event names must be string literals (static
// storage): recording an event is a handful of stores into preallocated
// memory — no allocation, no formatting — and sites guard on a null Hub
// pointer, so a simulation without an attached Hub pays one branch per site.
//
// Exporters (trace_export.hpp) render the retained events as a Chrome
// `trace_event` JSON document (loadable in chrome://tracing / Perfetto) or
// as compact JSONL, one event per line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/time.hpp"

namespace swiftest::obs {

/// Trace categories, one bit each, so a mask can select subsystems. Keeping
/// the set small and stable is deliberate: category filtering is the lever
/// that keeps a long simulation's trace focused (e.g. protocol-only).
enum class Category : std::uint32_t {
  kScheduler = 1u << 0,  // event queue activity
  kLink = 1u << 1,       // access/egress link enqueue/deliver/drop
  kTransport = 1u << 2,  // TCP cwnd/retransmit, UDP pacing
  kProtocol = 1u << 3,   // Swiftest sessions, probing-stage transitions
  kFleet = 1u << 4,      // fleet replay: concurrent tests, egress utilization
};

inline constexpr std::uint32_t kAllCategories = 0x1f;

/// The accepted `--trace-categories` tokens, comma-separated — the one
/// authoritative list. CLI usage/error text and docs quote this constant;
/// extend it together with Category and parse_category_mask.
inline constexpr const char* kCategoryListCsv =
    "all,scheduler,link,transport,protocol,fleet";

[[nodiscard]] const char* to_string(Category category) noexcept;

/// Parses a comma-separated category list ("scheduler,link,protocol") into a
/// mask; "all" selects everything. Returns nullopt on an unknown name; when
/// `bad_token` is non-null it receives the first offending token so callers
/// can name it in their error message.
[[nodiscard]] std::optional<std::uint32_t> parse_category_mask(
    std::string_view csv, std::string* bad_token = nullptr);

/// How an event renders in the Chrome exporter: a point-in-time marker or a
/// sample of a numeric series (cwnd, queue depth, probing rate).
enum class EventKind : std::uint8_t {
  kInstant,
  kCounter,
};

struct TraceEvent {
  core::SimTime ts = 0;
  Category category = Category::kScheduler;
  EventKind kind = EventKind::kInstant;
  /// Must point at static storage (a string literal).
  const char* name = "";
  /// Correlates related events: flow id, session nonce, server index.
  std::uint64_t id = 0;
  /// Numeric payload: rate in Mbps, queue bytes, sample value, ...
  double value = 0.0;
};

class Tracer {
 public:
  /// `capacity` is the ring size in events; once full, the oldest events are
  /// overwritten (and counted in dropped()).
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// True when the tracer retains events of this category. Instrumentation
  /// sites check this before computing event payloads.
  [[nodiscard]] bool wants(Category category) const noexcept {
    return (mask_ & static_cast<std::uint32_t>(category)) != 0;
  }

  void set_category_mask(std::uint32_t mask) noexcept { mask_ = mask; }
  [[nodiscard]] std::uint32_t category_mask() const noexcept { return mask_; }

  /// Overflow hook: when set, a full ring hands its events (record order,
  /// in place, so the hook may sort them) to this callback and starts over
  /// instead of overwriting the oldest — nothing is dropped.
  using OverflowFn = std::function<void(std::span<TraceEvent>)>;
  void set_overflow(OverflowFn fn) { overflow_ = std::move(fn); }

  /// Records one event (unconditionally — callers gate on wants()). Not
  /// noexcept: the first record() allocates the ring and may throw bad_alloc.
  void record(core::SimTime ts, Category category, EventKind kind, const char* name,
              std::uint64_t id, double value) {
    if (ring_.empty()) {
      ensure_ring();
    } else if (size_ == ring_.size() && overflow_) {
      // With a hook the ring never wraps, so it holds [0, size) in order.
      overflow_(std::span<TraceEvent>(ring_));
      size_ = 0;
    }
    TraceEvent& slot = ring_[head_];
    slot.ts = ts;
    slot.category = category;
    slot.kind = kind;
    slot.name = name;
    slot.id = id;
    slot.value = value;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    if (size_ < ring_.size()) {
      ++size_;
    } else {
      ++dropped_;
    }
  }

  /// Events currently retained.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Events overwritten because the ring wrapped, plus any add_dropped().
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Counts events lost before they reached this tracer.
  void add_dropped(std::uint64_t count) noexcept { dropped_ += count; }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  /// The same, in place: a wrapped ring is rotated so they can be reordered
  /// where they lie.
  [[nodiscard]] std::span<TraceEvent> retained();

  /// In-memory footprint of the ring: zero until
  /// the lazy ring is allocated.
  [[nodiscard]] std::uint64_t approx_bytes() const noexcept {
    return ring_.capacity() * sizeof(TraceEvent);
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
  }

  static constexpr std::size_t kDefaultCapacity = 1u << 18;

 private:
  /// Cold path: allocates the ring (capacity_ × 40 bytes) on first use.
  void ensure_ring();

  // The ring (capacity_ × 40 bytes, ~10 MB at the default) is allocated on
  // the first record(), not at construction: a Hub whose tracer never
  // records (mask off, or a per-test fleet hub whose scheduler traces into
  // its chunk's tracer or nowhere) costs no memory.
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = kDefaultCapacity;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t mask_ = kAllCategories;
  OverflowFn overflow_;
};

}  // namespace swiftest::obs
