// Causal span model: who spent the time, and under whom.
//
// The ring-buffer tracer (obs/trace.hpp) answers "what happened when"; spans
// answer "where the time went". A Span is a named sim-time interval with an
// id, a parent id, and a handful of typed attributes; together the spans of
// one bandwidth test form a tree rooted at the test span, and the analyzer
// (critical_path.hpp) turns that tree into a per-stage latency attribution.
//
// Determinism rules match the rest of obs/: ids are a sequential counter,
// timestamps are the simulated clock, names are string literals, and the
// store appends in begin order — so two same-seed runs export byte-identical
// span JSON. A SpanStore is bounded: once `capacity` spans have begun, new
// begins return kNoSpan (and are counted dropped); every operation on
// kNoSpan is a no-op, so instrumentation degrades gracefully instead of
// corrupting the tree.
//
// Propagation: a SpanContext carries the ambient open-span stack for one
// client (netsim::ClientContext owns one). Synchronous stages use the RAII
// SpanScope against that context; asynchronous stages (a probing round that
// spans many scheduler events) hold the SpanId and call end() when the
// stage closes. Server-side participants that only share a protocol nonce
// with the client attach through the store's trace-anchor registry:
// the client registers its test span under the nonce, the server parents
// its session span at anchor(nonce) — one tree per test, no protocol
// change.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "core/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace swiftest::obs::span {

/// Span identifier: 1-based begin order within one store. 0 is "no span";
/// every SpanStore/SpanContext operation on kNoSpan is a no-op.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// One typed key/value attribute. Keys must be string literals.
struct SpanAttr {
  enum class Type : std::uint8_t { kF64, kU64 };
  const char* key = "";
  Type type = Type::kF64;
  double f64 = 0.0;
  std::uint64_t u64 = 0;
};

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  /// Groups every participant of one logical operation (a bandwidth test):
  /// the wire protocol nonce. 0 = not part of a cross-component trace.
  std::uint64_t trace_id = 0;
  /// Must point at static storage (a string literal).
  const char* name = "";
  Category category = Category::kProtocol;
  core::SimTime start = 0;
  core::SimTime end = 0;
  bool closed = false;

  static constexpr std::size_t kMaxAttrs = 4;
  std::size_t attr_count = 0;
  SpanAttr attrs[kMaxAttrs];

  [[nodiscard]] core::SimDuration duration() const noexcept { return end - start; }
};

/// Append-only bounded store of spans, in begin order (id == index + 1).
class SpanStore {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit SpanStore(std::size_t capacity = kDefaultCapacity) : capacity_(capacity) {}

  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  /// Optional sinks, wired by the owning Hub: every begin/end is mirrored
  /// into the tracer (category-gated instant events "span.begin"/"span.end")
  /// and every closed span's duration lands in a per-stage histogram
  /// "span.stage_seconds/<name>" so SLO-style bounds can watch stage times.
  void set_sinks(Tracer* tracer, MetricsRegistry* metrics) noexcept {
    tracer_ = tracer;
    metrics_ = metrics;
  }

  /// Sampled mode (fleet sampling): a begin that would start a NEW trace
  /// tree for an unknown trace_id — nonzero trace_id, no parent, no anchor
  /// registered — is silently refused (counted in suppressed()). Unsampled
  /// tests never register their anchor, so cross-component participants
  /// (server sessions keyed on the wire nonce) drop out with them instead
  /// of leaving orphan roots in the artifact.
  void set_sampled_mode(bool on) noexcept { sampled_mode_ = on; }
  [[nodiscard]] bool sampled_mode() const noexcept { return sampled_mode_; }

  /// Opens a span. Returns kNoSpan (and counts the drop) once the store is
  /// at capacity. `trace_id` 0 inherits the parent's trace id.
  SpanId begin(core::SimTime ts, Category category, const char* name,
               SpanId parent = kNoSpan, std::uint64_t trace_id = 0);

  /// Closes a span at `ts`. No-op for kNoSpan, unknown, or already-closed
  /// ids (a double end must not corrupt the record).
  void end(SpanId id, core::SimTime ts);

  /// Attaches one typed attribute; silently dropped past kMaxAttrs.
  void attr_f64(SpanId id, const char* key, double value);
  void attr_u64(SpanId id, const char* key, std::uint64_t value);

  /// Re-keys a span's trace id after the fact (the wire nonce is drawn after
  /// the test span opens) and registers it as the trace's anchor.
  void set_trace_id(SpanId id, std::uint64_t trace_id);

  /// The span other components attach their sub-spans to for `trace_id`
  /// (registered by begin() with a nonzero trace_id, or set_trace_id).
  /// kNoSpan when no anchor is registered — callers then start their own
  /// root, and the analyzer reports it as a separate tree.
  [[nodiscard]] SpanId anchor(std::uint64_t trace_id) const;

  /// Appends a record its caller numbered (id size() + 1, parent resolved);
  /// it may grow the store past capacity and mirrors nothing.
  void append(const SpanRecord& record);

  /// Counts begins refused by other stores whose spans reached this one.
  void add_refused(std::uint64_t dropped, std::uint64_t suppressed) noexcept {
    dropped_ += dropped;
    suppressed_ += suppressed;
  }

  /// Retained spans, id-ascending and contiguous.
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Begins refused because the store was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Begins refused by sampled mode (intentional, not data loss).
  [[nodiscard]] std::uint64_t suppressed() const noexcept { return suppressed_; }
  /// Spans begun but not yet ended.
  [[nodiscard]] std::size_t open_count() const noexcept { return open_; }

  void clear() noexcept {
    spans_.clear();
    anchors_.clear();
    dropped_ = 0;
    suppressed_ = 0;
    open_ = 0;
    next_id_ = 1;
  }

 private:
  [[nodiscard]] SpanRecord* find(SpanId id) noexcept;

  std::size_t capacity_;
  std::vector<SpanRecord> spans_;
  std::map<std::uint64_t, SpanId> anchors_;
  std::uint64_t dropped_ = 0;
  std::uint64_t suppressed_ = 0;
  std::size_t open_ = 0;
  SpanId next_id_ = 1;
  bool sampled_mode_ = false;
  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  /// Per-name histogram handles, keyed on the literal's address (bind once).
  std::map<const void*, Histogram*> stage_hist_;
};

/// One client's ambient span state: the store it writes to, a sim-clock
/// callback, and the open-span stack that makes SpanScope nesting work.
/// Rebindable because a Hub may be attached to the scheduler after the
/// owning client exists; with a null store every operation is a no-op.
class SpanContext {
 public:
  using ClockFn = core::SimTime (*)(void*);

  void bind(SpanStore* store, ClockFn clock, void* clock_arg) noexcept {
    store_ = store;
    clock_ = clock;
    clock_arg_ = clock_arg;
  }

  [[nodiscard]] SpanStore* store() const noexcept { return store_; }
  [[nodiscard]] bool enabled() const noexcept {
    return store_ != nullptr && !suppressed_;
  }

  /// Whole-test sampling switch: while suppressed, begin() returns kNoSpan
  /// (so every dependent attr/end/push is a no-op) without touching the
  /// store. Deliberately NOT reset by bind() — the owning client re-binds
  /// the context on every access, but a sampling decision covers the whole
  /// test and is flipped explicitly at test start.
  void set_suppressed(bool suppressed) noexcept { suppressed_ = suppressed; }
  [[nodiscard]] bool suppressed() const noexcept { return suppressed_; }
  [[nodiscard]] core::SimTime now() const noexcept {
    return clock_ != nullptr ? clock_(clock_arg_) : 0;
  }

  /// Innermost open span — the parent new work attaches under.
  [[nodiscard]] SpanId current() const noexcept {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  /// Opens a child of current() at the clock's now. Does not push.
  SpanId begin(Category category, const char* name) {
    if (store_ == nullptr || suppressed_) return kNoSpan;
    return store_->begin(now(), category, name, current());
  }

  void end(SpanId id) {
    if (store_ != nullptr) store_->end(id, now());
  }

  /// Makes `id` the ambient parent until the matching pop. Pop tolerates
  /// out-of-order ids (it unwinds to the matching entry) so an abandoned
  /// async stage cannot wedge the stack.
  void push(SpanId id) {
    if (id != kNoSpan) stack_.push_back(id);
  }
  void pop(SpanId id) noexcept {
    while (!stack_.empty()) {
      const SpanId top = stack_.back();
      stack_.pop_back();
      if (top == id) break;
    }
  }

 private:
  SpanStore* store_ = nullptr;
  ClockFn clock_ = nullptr;
  void* clock_arg_ = nullptr;
  bool suppressed_ = false;
  std::vector<SpanId> stack_;
};

/// RAII span for synchronous stages: begins a child of the context's current
/// span and pushes it; ends and pops on destruction. With a disabled context
/// the whole object is a no-op (id() == kNoSpan).
class SpanScope {
 public:
  SpanScope(SpanContext& ctx, Category category, const char* name)
      : ctx_(ctx), id_(ctx.begin(category, name)) {
    ctx_.push(id_);
  }
  ~SpanScope() {
    ctx_.pop(id_);
    ctx_.end(id_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] SpanId id() const noexcept { return id_; }

 private:
  SpanContext& ctx_;
  SpanId id_;
};

}  // namespace swiftest::obs::span
