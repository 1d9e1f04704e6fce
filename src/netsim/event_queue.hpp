// Event queue for the slab scheduler.
//
// The scheduler stores callbacks in a slab; what gets ordered is a 24-byte
// EventKey {when, seq, slot} in strict (when, seq) order — seq is unique, so
// there are no ambiguous ties. CalendarEventQueue is the scheduler's one
// queue: a bucketed timer ring for the dominant near-future events, O(1)
// amortized. The ring covers [base, base + buckets * width); events beyond
// the horizon wait in a far-future heap and migrate into the ring when it
// drains and rebases. Buckets are swept into a small "active" min-heap as
// the cursor reaches them; `swept_end` records the exclusive end time of the
// last swept bucket, and any in-window insert below that watermark joins the
// active heap directly — the cursor has already passed its bucket (e.g. a
// peek() swept a future bucket and the caller then scheduled into the gap),
// and parking it in the ring would delay it a full lap. Inserts before
// `base` (possible after run_until() parks the clock between a drained ring
// and a far-future rebase target) are below that watermark too: every
// rebase is followed at once by a sweep of at least one bucket, so
// swept_end > base whenever a push can happen. They join the active heap
// like any other late arrival. Invariant: active < swept_end <= ring < far,
// so draining active, then sweeping buckets in cursor order yields the
// exact (when, seq) total order without ever rebasing backwards. The tests
// hold a plain EventKeyHeap as the reference order the ring must reproduce.
#pragma once

#include <cassert>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/time.hpp"

namespace swiftest::netsim {

struct EventKey {
  core::SimTime when = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;

  bool operator>(const EventKey& other) const noexcept {
    if (when != other.when) return when > other.when;
    return seq > other.seq;
  }
};

using EventKeyHeap =
    std::priority_queue<EventKey, std::vector<EventKey>, std::greater<>>;

/// O(1)-amortized calendar queue: 1024 buckets of 2^18 ns (~262 us) give a
/// ~268 ms ring — wider than any simulated RTT or pacing gap, so
/// steady-state packet events never touch the far heap.
class CalendarEventQueue {
 public:
  static constexpr std::uint32_t kWidthShift = 18;
  static constexpr std::uint32_t kBucketCount = 1024;
  static_assert((kBucketCount & (kBucketCount - 1)) == 0,
                "bucket count must be a power of 2");

  CalendarEventQueue() : buckets_(kBucketCount) {}

  /// Structural activity counters for resource self-telemetry: how often the
  /// ring swept buckets, rebased its window, routed keys to the far heap,
  /// or took keys from before its window. Deterministic for a deterministic
  /// event sequence.
  struct Stats {
    std::uint64_t sweeps = 0;           // buckets swept into the active heap
    std::uint64_t rebases = 0;          // window jumps to the far heap
    std::uint64_t far_pushes = 0;       // keys pushed beyond the horizon
    std::uint64_t underflow_pushes = 0; // keys pushed before base (to active)
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  void push(const EventKey& key) {
    ++size_;
    if (key.when >= horizon_end_) {
      ++stats_.far_pushes;
      far_.push(key);
    } else if (key.when < swept_end_) {
      // The sweep cursor has already passed this key's bucket in the current
      // lap (or the key predates the window: base_ < swept_end_ here); the
      // active heap restores (when, seq) order for late arrivals.
      if (key.when < base_) ++stats_.underflow_pushes;
      active_.push(key);
    } else {
      buckets_[bucket_of(key.when)].push_back(key);
      ++ring_count_;
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Lowest (when, seq) key without removing it. May migrate far-future
  /// events into the ring (order-preserving). False when empty.
  bool peek(EventKey& out) {
    EventKeyHeap* src = select_source();
    if (src == nullptr) return false;
    out = src->top();
    return true;
  }

  /// Removes the key the last peek() returned. Call only right after a
  /// peek() that returned true, with no push in between: peek() left that
  /// key on top of the active heap, so no source is selected again.
  void pop_peeked() {
    assert(!active_.empty());
    active_.pop();
    --size_;
  }

 private:
  static constexpr std::uint32_t kBucketMask = kBucketCount - 1;
  static constexpr core::SimTime kSpan = core::SimTime{kBucketCount} << kWidthShift;

  [[nodiscard]] static std::uint32_t bucket_of(core::SimTime when) noexcept {
    return static_cast<std::uint32_t>(when >> kWidthShift) & kBucketMask;
  }
  /// Start time of ring bucket `b` within the current window. Well-defined
  /// because `base_` is bucket-aligned and the window spans exactly one lap.
  [[nodiscard]] core::SimTime bucket_start(std::uint32_t b) const noexcept {
    const std::uint32_t lap = (b - bucket_of(base_)) & kBucketMask;
    return base_ + (static_cast<core::SimTime>(lap) << kWidthShift);
  }

  /// Sweeps ring buckets into the active heap (advancing the watermark)
  /// until it is non-empty. False when both it and the ring are exhausted.
  bool ensure_active() {
    while (true) {
      if (!active_.empty()) return true;
      if (ring_count_ == 0) return false;
      while (buckets_[cursor_].empty()) cursor_ = (cursor_ + 1) & kBucketMask;
      std::vector<EventKey>& bucket = buckets_[cursor_];
      for (const EventKey& key : bucket) active_.push(key);
      ring_count_ -= bucket.size();
      bucket.clear();
      ++stats_.sweeps;
      // Buckets skipped above were empty, so every ring key still ahead of
      // the cursor is >= swept_end_ — late pushes below it go to active_.
      swept_end_ = bucket_start(cursor_) + (core::SimTime{1} << kWidthShift);
      cursor_ = (cursor_ + 1) & kBucketMask;
    }
  }

  /// Active heap and ring drained: jump the window to the earliest
  /// far-future event and pull everything inside the new horizon into the
  /// ring. Keys only ever move far -> ring, so `size_` is untouched.
  void rebase_from_far() {
    assert(!far_.empty());
    ++stats_.rebases;
    base_ = (far_.top().when >> kWidthShift) << kWidthShift;
    horizon_end_ = base_ + kSpan;
    cursor_ = bucket_of(base_);
    swept_end_ = base_;  // nothing in the new window has been swept yet
    while (!far_.empty() && far_.top().when < horizon_end_) {
      buckets_[bucket_of(far_.top().when)].push_back(far_.top());
      ++ring_count_;
      far_.pop();
    }
  }

  EventKeyHeap* select_source() {
    if (size_ == 0) return nullptr;
    if (!ensure_active()) {
      rebase_from_far();
      const bool loaded = ensure_active();
      assert(loaded);
      (void)loaded;
    }
    return &active_;
  }

  std::vector<std::vector<EventKey>> buckets_;
  std::size_t ring_count_ = 0;  // keys sitting in bucket vectors
  std::size_t size_ = 0;        // total keys across all structures
  core::SimTime base_ = 0;       // start of the ring window
  core::SimTime horizon_end_ = kSpan;  // base_ + kSpan
  core::SimTime swept_end_ = 0;  // exclusive end of the last swept bucket
  std::uint32_t cursor_ = 0;     // next bucket to sweep into the active heap
  EventKeyHeap active_;     // swept keys plus late arrivals below swept_end_
  EventKeyHeap far_;        // keys at or beyond the horizon
  Stats stats_;
};

}  // namespace swiftest::netsim
