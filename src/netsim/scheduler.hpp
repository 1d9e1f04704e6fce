// Discrete-event scheduler.
//
// The simulator core: timestamped callbacks ordered by (when, insertion
// sequence) under a monotonically advancing integer-nanosecond clock, so
// runs are fully deterministic.
//
// Hot-path layout (see DESIGN.md §11): callbacks live in a slab of reusable
// EventSlots (free-list, small-buffer-optimized storage — zero per-event
// heap allocations in steady state); one O(1)-amortized calendar ring
// orders the 24-byte EventKeys. Cancellation is by slot index + generation:
// an EventHandle holding a stale generation is a guaranteed no-op,
// replacing the old shared_ptr<bool> per event.
#pragma once

#include <cstdint>
#include <vector>

#include "core/small_fn.hpp"
#include "core/time.hpp"
#include "netsim/event_queue.hpp"
#include "netsim/payload.hpp"
#include "netsim/transit_pool.hpp"
#include "obs/hub.hpp"

namespace swiftest::netsim {

class Scheduler;

namespace detail {
/// Liveness token shared by a Scheduler and every EventHandle it issued:
/// one allocation per scheduler, never per event. The scheduler's destructor
/// nulls `owner`, turning cancel() on outstanding handles into a no-op. The
/// refcount is deliberately non-atomic: a scheduler and its handles live on
/// one shard thread, crossing threads only with happens-before ordering
/// (worker hand-off / join).
struct SchedulerLife {
  Scheduler* owner = nullptr;
  std::uint32_t refs = 0;
};
}  // namespace detail

/// Handle for cancelling a scheduled event. It names a slab slot plus the
/// generation the slot had when the event was armed, so it stays safe (and
/// inert) after the event fires and the slot is reused — and, via the
/// scheduler's liveness token, cancel() is also a safe no-op after the
/// Scheduler itself is destroyed (components torn down late keep working).
class EventHandle {
 public:
  EventHandle() = default;

  EventHandle(const EventHandle& other) noexcept
      : life_(other.life_), slot_(other.slot_), generation_(other.generation_) {
    if (life_ != nullptr) ++life_->refs;
  }
  EventHandle(EventHandle&& other) noexcept
      : life_(other.life_), slot_(other.slot_), generation_(other.generation_) {
    other.life_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& other) noexcept {
    if (this != &other) {
      release();
      life_ = other.life_;
      slot_ = other.slot_;
      generation_ = other.generation_;
      if (life_ != nullptr) ++life_->refs;
    }
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      release();
      life_ = other.life_;
      slot_ = other.slot_;
      generation_ = other.generation_;
      other.life_ = nullptr;
    }
    return *this;
  }
  ~EventHandle() { release(); }

  /// Prevents the event's callback from running. Safe to call repeatedly,
  /// after the event has fired, or after the owning Scheduler is destroyed
  /// (no-op in all of those cases).
  inline void cancel() const;

  [[nodiscard]] bool valid() const noexcept { return life_ != nullptr; }

 private:
  friend class Scheduler;
  EventHandle(detail::SchedulerLife* life, std::uint32_t slot,
              std::uint32_t generation) noexcept
      : life_(life), slot_(slot), generation_(generation) {
    ++life_->refs;
  }
  void release() noexcept {
    if (life_ != nullptr && --life_->refs == 0) delete life_;
    life_ = nullptr;
  }

  detail::SchedulerLife* life_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class Scheduler {
 public:
  /// Scheduled callback type. 48 inline bytes covers every capture list on
  /// the packet hot path; larger callables fall back to the heap and are
  /// counted in AllocStats.
  using Task = core::SmallFn<void(), 48>;

  Scheduler() : life_(new detail::SchedulerLife{this, 1}) {
    slots_.reserve(kInitialSlots);
  }
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() {
    life_->owner = nullptr;  // outstanding handles become inert
    if (--life_->refs == 0) delete life_;
  }

  [[nodiscard]] core::SimTime now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `when` (>= now).
  EventHandle schedule_at(core::SimTime when, Task fn);

  /// Schedules `fn` to run `delay` from now.
  EventHandle schedule_in(core::SimDuration delay, Task fn);

  /// Runs events until the queue is empty or the clock passes `deadline`.
  /// Events scheduled exactly at `deadline` are executed.
  void run_until(core::SimTime deadline);

  /// Runs until the queue drains completely.
  void run();

  /// True when no events remain (cancelled events count until they are
  /// popped, matching the legacy queue-size semantics).
  [[nodiscard]] bool idle() const noexcept { return size_ == 0; }

  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }

  /// Arena for Packet payloads created by components driven by this
  /// scheduler. Per-shard, single-threaded; see payload.hpp.
  [[nodiscard]] PayloadArena& payload_arena() noexcept { return payloads_; }

  /// Pool of in-flight packet nodes shared by every link and path driven by
  /// this scheduler. Owned here — not by the links — because a node moves
  /// between links and paths during its trip, and only the scheduler
  /// reliably outlives all of them.
  [[nodiscard]] TransitPool& transit_pool() noexcept { return transits_; }

  /// Allocation accounting for the zero-allocation steady-state gate:
  /// slab/arena capacities only grow while the working set grows, and the
  /// fallback counters stay flat once warm.
  struct AllocStats {
    std::uint64_t slab_slots = 0;          // event slots ever allocated
    std::uint64_t live_events = 0;         // armed + cancelled-not-yet-popped
    std::uint64_t callback_heap_fallbacks = 0;  // callables too big for inline storage
    std::uint64_t payload_nodes = 0;       // payload arena slab capacity
    std::uint64_t payload_heap_spills = 0;  // payloads too big for a node
    std::uint64_t transit_nodes = 0;       // transit pool slab capacity
    std::uint64_t transit_peak_live = 0;   // high-water mark of live transits
  };
  [[nodiscard]] AllocStats alloc_stats() const noexcept {
    const PayloadArena::Stats pa = payloads_.stats();
    return AllocStats{slots_.size(),  size_,          fn_heap_fallbacks_,
                      pa.nodes,       pa.heap_spills, transits_.capacity(),
                      transits_.peak_live()};
  }

  /// Calendar-ring activity counters for resource self-telemetry.
  [[nodiscard]] const CalendarEventQueue::Stats& calendar_stats() const noexcept {
    return calendar_.stats();
  }

  /// Attaches (or detaches, with nullptr) an observability Hub. Every
  /// component driven by this scheduler reads the Hub through here; with no
  /// Hub attached each instrumentation site is one branch on a null pointer.
  /// Also points the trace sink at the Hub's tracer (see set_tracer). The
  /// Hub must outlive the simulation.
  void set_obs(obs::Hub* hub) noexcept {
    obs_ = hub;
    tracer_ = hub != nullptr ? &hub->tracer : nullptr;
  }
  [[nodiscard]] obs::Hub* obs() const noexcept { return obs_; }

  /// Overrides the trace sink set_obs chose, independently of the Hub's
  /// metrics and spans: nullptr silences every trace site driven by this
  /// scheduler, another tracer receives their events directly. Span
  /// begin/end markers are not trace sites — they follow the span store's
  /// own sinks (SpanStore::set_sinks). Call after set_obs. The tracer must
  /// outlive the simulation.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// The trace sink iff it retains `category` events; instrumentation
  /// sites gate payload computation on this returning non-null.
  [[nodiscard]] obs::Tracer* tracer(obs::Category category) const noexcept {
    return tracer_ != nullptr && tracer_->wants(category) ? tracer_ : nullptr;
  }

 private:
  friend class EventHandle;
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::size_t kInitialSlots = 256;

  enum class SlotState : std::uint8_t { kFree, kArmed, kCancelled };

  struct EventSlot {
    Task fn;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNil;
    SlotState state = SlotState::kFree;
  };

  struct ObsHandles {
    bool bound = false;
    obs::Counter* scheduled = nullptr;
    obs::Counter* fired = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* depth_hist = nullptr;
  };
  void bind_obs();

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t idx);
  void cancel_event(std::uint32_t slot, std::uint32_t generation);

  core::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t size_ = 0;  // events alive in the queue (incl. cancelled)
  std::uint64_t fn_heap_fallbacks_ = 0;
  detail::SchedulerLife* life_;
  std::vector<EventSlot> slots_;
  std::uint32_t free_head_ = kNil;
  CalendarEventQueue calendar_;
  PayloadArena payloads_;
  TransitPool transits_;
  obs::Hub* obs_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  ObsHandles obs_handles_;
};

inline void EventHandle::cancel() const {
  if (life_ != nullptr && life_->owner != nullptr) {
    life_->owner->cancel_event(slot_, generation_);
  }
}

}  // namespace swiftest::netsim
