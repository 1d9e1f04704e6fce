#include "netsim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/rng.hpp"

namespace swiftest::netsim {
namespace {

using core::microseconds;
using core::milliseconds;
using core::seconds;

TEST(CalendarEventQueue, MatchesReferenceHeapUnderSchedulerContract) {
  // Differential test: one seeded stream of push/peek/pop calls drives the
  // calendar ring and a plain binary heap, and every peek and pop must agree
  // on the exact key. The stream obeys the scheduler's contract — every push
  // is at or after a clock that advances to popped keys and to parked
  // run_until() deadlines — and mixes same-time ties, same-bucket and
  // mid-ring pushes, pushes beyond the ~268 ms horizon (forcing rebases),
  // pushes into the gap below a rebased window (routed to the active heap
  // and counted in underflow_pushes), and
  // short-offset pushes behind the sweep cursor after an exit peek.
  CalendarEventQueue calendar;
  EventKeyHeap reference;
  core::Rng rng(1806);
  core::SimTime now = 0;
  core::SimTime last_when = 0;
  std::uint64_t next_seq = 0;
  std::uint64_t pops = 0;

  const auto push = [&](core::SimTime when) {
    const EventKey key{when, next_seq, static_cast<std::uint32_t>(next_seq % 4096)};
    ++next_seq;
    last_when = when;
    calendar.push(key);
    reference.push(key);
  };
  // Peeks both queues; false (after checking both are empty) when drained.
  const auto peek = [&](EventKey& head) {
    const bool has = calendar.peek(head);
    EXPECT_EQ(has, !reference.empty()) << "after " << pops << " pops";
    if (!has || reference.empty()) return false;
    const EventKey& want = reference.top();
    EXPECT_EQ(head.when, want.when) << "peek after " << pops << " pops";
    EXPECT_EQ(head.seq, want.seq) << "peek after " << pops << " pops";
    EXPECT_EQ(head.slot, want.slot) << "peek after " << pops << " pops";
    return true;
  };
  // Pops the key a successful peek just returned, as Scheduler::run_until()
  // does; the next peek checks what pop_peeked() left on top.
  const auto pop = [&](const EventKey& got) {
    calendar.pop_peeked();
    const EventKey want = reference.top();
    reference.pop();
    EXPECT_EQ(got.when, want.when) << "pop " << pops;
    EXPECT_EQ(got.seq, want.seq) << "pop " << pops;
    EXPECT_EQ(got.slot, want.slot) << "pop " << pops;
    ++pops;
    now = got.when;
  };
  // Scheduler::run_until(): pop every due key, then park the clock at the
  // deadline. The failing exit peek may sweep a future bucket or rebase.
  const auto run_until = [&](core::SimTime deadline) {
    EventKey head;
    while (peek(head) && head.when <= deadline) pop(head);
    now = std::max(now, deadline);
  };

  for (int step = 0; step < 20000 && !HasFailure(); ++step) {
    const auto pushes = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < pushes; ++k) {
      switch (rng.uniform_int(0, 9)) {
        case 0:  // exact tie with the previous push (or with the clock)
          push(std::max(now, last_when));
          break;
        case 1:  // same ~262 us bucket as the clock
          push(now + rng.uniform_int(0, microseconds(200)));
          break;
        case 2:
        case 3:  // just ahead: behind the cursor after an exit peek
          push(now + rng.uniform_int(0, milliseconds(5)));
          break;
        case 4:
        case 5:
        case 6:  // mid-ring
          push(now + rng.uniform_int(0, milliseconds(200)));
          break;
        default:  // beyond the horizon
          push(now + rng.uniform_int(milliseconds(300), seconds(2)));
          break;
      }
    }
    EventKey head;
    switch (rng.uniform_int(0, 5)) {
      case 0:
        peek(head);
        break;
      case 1:
        if (peek(head)) pop(head);
        break;
      case 2:  // long park: often drains the ring and rebases on exit
        run_until(now + rng.uniform_int(milliseconds(200), milliseconds(600)));
        break;
      default:
        run_until(now + rng.uniform_int(0, milliseconds(50)));
        break;
    }
  }
  run_until(core::kSimTimeMax - 1);
  EXPECT_TRUE(calendar.empty());
  EXPECT_TRUE(reference.empty());

  // Every routing branch ran, and the queue's self-telemetry is a pure
  // function of the call stream.
  const CalendarEventQueue::Stats& stats = calendar.stats();
  EXPECT_GT(stats.sweeps, 0u);
  EXPECT_GT(stats.rebases, 0u);
  EXPECT_GT(stats.far_pushes, 0u);
  EXPECT_GT(stats.underflow_pushes, 0u);
  EXPECT_EQ(pops, next_seq);
  EXPECT_EQ(stats.sweeps, 13528u);
  EXPECT_EQ(stats.rebases, 3734u);
  EXPECT_EQ(stats.far_pushes, 9811u);
  // Keys pushed below a rebased window's base (they join the active heap).
  EXPECT_EQ(stats.underflow_pushes, 11266u);
}

}  // namespace
}  // namespace swiftest::netsim
