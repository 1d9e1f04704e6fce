#include "netsim/scheduler.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/small_fn.hpp"

namespace swiftest::netsim {
namespace {

using core::microseconds;
using core::milliseconds;
using core::seconds;

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  sched.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  sched.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), milliseconds(30));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(milliseconds(10), [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  core::SimTime fired_at = -1;
  sched.schedule_at(milliseconds(5), [&] {
    sched.schedule_in(milliseconds(10), [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, milliseconds(15));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  int count = 0;
  sched.schedule_at(milliseconds(10), [&] { ++count; });
  sched.schedule_at(milliseconds(20), [&] { ++count; });
  sched.schedule_at(milliseconds(30), [&] { ++count; });
  sched.run_until(milliseconds(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sched.now(), milliseconds(20));
  sched.run();
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler sched;
  sched.run_until(seconds(5));
  EXPECT_EQ(sched.now(), seconds(5));
  EXPECT_TRUE(sched.idle());
}

TEST(Scheduler, CancelledEventDoesNotRun) {
  Scheduler sched;
  bool ran = false;
  EventHandle h = sched.schedule_at(milliseconds(10), [&] { ran = true; });
  h.cancel();
  sched.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFireIsNoop) {
  Scheduler sched;
  bool ran = false;
  EventHandle h = sched.schedule_at(milliseconds(1), [&] { ran = true; });
  sched.run();
  EXPECT_TRUE(ran);
  h.cancel();  // must not crash
}

TEST(Scheduler, SchedulingInPastThrows) {
  Scheduler sched;
  sched.schedule_at(milliseconds(10), [] {});
  sched.run();
  EXPECT_THROW(sched.schedule_at(milliseconds(5), [] {}), std::invalid_argument);
}

TEST(Scheduler, EventsExecutedCounterSkipsCancelled) {
  Scheduler sched;
  sched.schedule_at(1, [] {});
  EventHandle h = sched.schedule_at(2, [] {});
  h.cancel();
  sched.run();
  EXPECT_EQ(sched.events_executed(), 1u);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sched.schedule_in(milliseconds(1), recurse);
  };
  sched.schedule_at(0, recurse);
  sched.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sched.now(), milliseconds(99));
}

TEST(Scheduler, CancelAfterSlotReuseIsNoop) {
  Scheduler sched;
  // Occupy one slot, cancel it, and drain so the slot returns to the free
  // list with a bumped generation.
  EventHandle stale = sched.schedule_at(milliseconds(1), [] {});
  stale.cancel();
  sched.run();
  // The next event reuses that slot under a new generation; the stale
  // handle must not be able to cancel the new occupant.
  bool ran = false;
  EventHandle fresh = sched.schedule_at(milliseconds(2), [&] { ran = true; });
  stale.cancel();
  sched.run();
  EXPECT_TRUE(ran);
  (void)fresh;
}

TEST(Scheduler, SteadyStateChurnDoesNotGrowTheSlab) {
  Scheduler sched;
  const auto churn = [&] {
    std::vector<EventHandle> handles;
    for (int round = 0; round < 50; ++round) {
      handles.clear();
      for (int i = 0; i < 32; ++i) {
        handles.push_back(sched.schedule_in(microseconds(10 + i), [] {}));
      }
      for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
      sched.run();
    }
  };
  churn();  // warm-up sizes the slab for this footprint
  const Scheduler::AllocStats warm = sched.alloc_stats();
  const std::uint64_t fn_heap_before = core::small_fn_heap_allocations();
  churn();  // steady state: same footprint, zero new slots or heap fallbacks
  const Scheduler::AllocStats after = sched.alloc_stats();
  EXPECT_EQ(after.slab_slots, warm.slab_slots);
  EXPECT_EQ(after.callback_heap_fallbacks, warm.callback_heap_fallbacks);
  EXPECT_EQ(core::small_fn_heap_allocations(), fn_heap_before)
      << "scheduler callbacks must fit SmallFn inline storage";
}

TEST(Scheduler, CancelAfterSchedulerDestructionIsNoop) {
  EventHandle h;
  {
    Scheduler sched;
    h = sched.schedule_at(milliseconds(10), [] {});
  }
  h.cancel();  // scheduler is gone: must be a safe no-op, not UB
  EXPECT_TRUE(h.valid());
}

TEST(Scheduler, FiringAnEmptyTaskThrowsBadFunctionCall) {
  Scheduler sched;
  sched.schedule_at(milliseconds(1), Scheduler::Task{});
  EXPECT_THROW(sched.run(), std::bad_function_call);
}

TEST(Scheduler, LateInsertBehindSweepCursorFiresInOrder) {
  // Regression: run_until()'s exit peek sweeps the 100 ms bucket into the
  // calendar's active heap. A subsequent schedule_at() into the gap between
  // now and that bucket must not be parked in a behind-cursor ring bucket
  // (which would fire it a full ~268 ms lap late, after the 100 ms event).
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(milliseconds(100), [&] { order.push_back(100); });
  sched.run_until(milliseconds(1));
  sched.schedule_at(milliseconds(60), [&] { order.push_back(60); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{60, 100}));
  EXPECT_EQ(sched.now(), milliseconds(100));
}

/// (fire time, id) per fired event, in fire order. Ids count up in the order
/// the events were scheduled.
using FireLog = std::vector<std::pair<core::SimTime, int>>;

/// The scheduler's ordering contract, checked on a run's fire log: fire
/// times never go backwards, equal times fire in insertion order, cancelled
/// ids never fire, and every other scheduled id fires exactly once.
void expect_contract(const FireLog& fired, const std::vector<bool>& cancelled) {
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first) << "fire " << i << " went backwards";
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second)
          << "tie at fire " << i << " broke insertion order";
    }
  }
  std::vector<int> fire_count(cancelled.size(), 0);
  for (const auto& [when, id] : fired) {
    ASSERT_GE(id, 0);
    ASSERT_LT(static_cast<std::size_t>(id), cancelled.size());
    ++fire_count[static_cast<std::size_t>(id)];
  }
  for (std::size_t id = 0; id < cancelled.size(); ++id) {
    EXPECT_EQ(fire_count[id], cancelled[id] ? 0 : 1) << "id " << id;
  }
}

TEST(Scheduler, InterleavedRunUntilFiresInOrder) {
  // External scheduling between run_until() steps: the final peek of each
  // step can sweep a future bucket into the calendar's active heap, so the
  // next external push often lands behind the sweep cursor. The clock must
  // never move backwards, and every event must fire once, in order.
  Scheduler sched;
  core::Rng rng(424242);
  FireLog fired;
  std::vector<bool> cancelled;
  for (int step = 0; step < 300; ++step) {
    const auto pushes = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < pushes; ++k) {
      // Offsets span same-bucket, mid-ring, and beyond-horizon targets.
      const core::SimTime when = sched.now() + rng.uniform_int(0, milliseconds(400));
      const auto id = static_cast<int>(cancelled.size());
      cancelled.push_back(false);
      sched.schedule_at(when, [&fired, &sched, id] { fired.emplace_back(sched.now(), id); });
    }
    const core::SimTime before = sched.now();
    sched.run_until(sched.now() + rng.uniform_int(0, milliseconds(120)));
    EXPECT_GE(sched.now(), before);
  }
  sched.run();
  ASSERT_FALSE(fired.empty());
  expect_contract(fired, cancelled);
}

TEST(Scheduler, ChurnFiresLiveEventsOnceInOrder) {
  // Random churn: uniform and far-future arrivals (beyond the calendar ring,
  // forcing rebase), mid-drain inserts from firing events, and
  // cancellations. Duplicate target times are common and must resolve by
  // insertion order.
  Scheduler sched;
  core::Rng rng(2022);
  FireLog fired;
  std::vector<bool> cancelled;
  std::vector<EventHandle> handles;  // handles[id] arms event `id`
  const auto schedule = [&](core::SimTime when, Scheduler::Task fn) {
    cancelled.push_back(false);
    handles.push_back(sched.schedule_at(when, std::move(fn)));
  };
  for (int i = 0; i < 500; ++i) {
    // Mix of near (same bucket), mid-ring, and far-future (several times
    // the ~268 ms ring horizon) target times.
    const core::SimTime when = rng.uniform_int(0, seconds(2));
    const auto id = static_cast<int>(handles.size());
    schedule(when, [&fired, &sched, id] { fired.emplace_back(sched.now(), id); });
    if (i % 4 == 0) {
      const int child = id + 1;
      schedule(when, [&fired, &sched, &rng, &handles, &schedule, child] {
        fired.emplace_back(sched.now(), child);
        // Mid-drain insert relative to the firing time: lands in the
        // active bucket or just past it.
        const auto grandchild = static_cast<int>(handles.size());
        schedule(sched.now() + rng.uniform_int(0, milliseconds(1)),
                 [&fired, &sched, grandchild] {
                   fired.emplace_back(sched.now(), grandchild);
                 });
      });
    }
  }
  for (std::size_t i = 0; i < handles.size(); i += 5) {
    handles[i].cancel();
    cancelled[i] = true;
  }
  sched.run();
  ASSERT_FALSE(fired.empty());
  expect_contract(fired, cancelled);
}

}  // namespace
}  // namespace swiftest::netsim
