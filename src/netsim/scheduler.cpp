#include "netsim/scheduler.hpp"

#include <stdexcept>
#include <utility>

namespace swiftest::netsim {

void Scheduler::bind_obs() {
  obs_handles_.bound = true;
  auto& m = obs_->metrics;
  obs_handles_.scheduled = &m.counter("scheduler.events_scheduled");
  obs_handles_.fired = &m.counter("scheduler.events_fired");
  obs_handles_.cancelled = &m.counter("scheduler.events_cancelled");
  obs_handles_.queue_depth = &m.gauge("scheduler.queue_depth");
  static constexpr double kDepthBounds[] = {10, 100, 1'000, 10'000, 100'000};
  obs_handles_.depth_hist = &m.histogram("scheduler.queue_depth", kDepthBounds);
}

std::uint32_t Scheduler::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  return idx;
}

void Scheduler::free_slot(std::uint32_t idx) {
  EventSlot& s = slots_[idx];
  s.fn.reset();
  s.state = SlotState::kFree;
  ++s.generation;  // invalidates every outstanding handle to this slot
  s.next_free = free_head_;
  free_head_ = idx;
}

void Scheduler::cancel_event(std::uint32_t slot, std::uint32_t generation) {
  if (slot >= slots_.size()) return;
  EventSlot& s = slots_[slot];
  if (s.generation != generation || s.state != SlotState::kArmed) return;
  s.state = SlotState::kCancelled;
  // Release captures eagerly; the slot itself stays queued (and counted in
  // the queue depth) until its key is popped, matching legacy semantics.
  s.fn.reset();
}

EventHandle Scheduler::schedule_at(core::SimTime when, Task fn) {
  if (when < now_) throw std::invalid_argument("Scheduler: cannot schedule in the past");
  const std::uint32_t idx = alloc_slot();
  EventSlot& s = slots_[idx];
  s.fn = std::move(fn);
  s.state = SlotState::kArmed;
  if (!s.fn.is_inline()) ++fn_heap_fallbacks_;
  calendar_.push(EventKey{when, next_seq_++, idx});
  ++size_;
  if (obs_ != nullptr) {
    if (!obs_handles_.bound) bind_obs();
    obs_handles_.scheduled->inc();
    obs_handles_.queue_depth->set(static_cast<double>(size_));
  }
  return EventHandle(life_, idx, s.generation);
}

EventHandle Scheduler::schedule_in(core::SimDuration delay, Task fn) {
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::run_until(core::SimTime deadline) {
  EventKey key;
  while (calendar_.peek(key) && key.when <= deadline) {
    calendar_.pop_peeked();
    EventSlot& slot = slots_[key.slot];
    // The clock advances even for cancelled events (legacy behavior).
    now_ = key.when;
    const bool cancelled = slot.state == SlotState::kCancelled;
    Task fn;
    if (!cancelled) fn = std::move(slot.fn);
    free_slot(key.slot);
    --size_;
    if (!cancelled) {
      ++executed_;
      if (obs_ != nullptr) {
        if (!obs_handles_.bound) bind_obs();
        obs_handles_.fired->inc();
        obs_handles_.queue_depth->set(static_cast<double>(size_));
        obs_handles_.depth_hist->observe(static_cast<double>(size_));
      }
      if (obs::Tracer* tr = tracer(obs::Category::kScheduler)) {
        tr->record(now_, obs::Category::kScheduler, obs::EventKind::kInstant,
                   "sched.fire", key.seq, static_cast<double>(size_));
      }
      fn();
    } else if (obs_ != nullptr) {
      if (!obs_handles_.bound) bind_obs();
      obs_handles_.cancelled->inc();
    }
  }
  // Advance the clock to the deadline, except for the "drain everything"
  // sentinel where the clock should rest at the last executed event.
  if (now_ < deadline && deadline != core::kSimTimeMax) now_ = deadline;
}

void Scheduler::run() { run_until(core::kSimTimeMax); }

}  // namespace swiftest::netsim
