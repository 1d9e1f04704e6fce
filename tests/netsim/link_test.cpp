#include "netsim/link.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace swiftest::netsim {
namespace {

using core::Bandwidth;
using core::Bytes;
using core::milliseconds;
using core::seconds;
using core::SimTime;

Packet make_packet(std::int32_t size) {
  Packet p;
  p.size_bytes = size;
  return p;
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(8);  // 1 byte/us
  cfg.propagation_delay = milliseconds(10);
  Link link(sched, cfg, core::Rng(1));

  SimTime delivered_at = -1;
  link.send(make_packet(1000), [&](const Packet&) { delivered_at = sched.now(); });
  sched.run();
  // 1000 bytes at 1 byte/us = 1 ms serialization + 10 ms propagation.
  EXPECT_EQ(delivered_at, milliseconds(11));
}

TEST(Link, BackToBackPacketsQueueBehindEachOther) {
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(8);
  cfg.propagation_delay = 0;
  Link link(sched, cfg, core::Rng(1));

  std::vector<SimTime> deliveries;
  for (int i = 0; i < 3; ++i) {
    link.send(make_packet(1000), [&](const Packet&) { deliveries.push_back(sched.now()); });
  }
  sched.run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], milliseconds(1));
  EXPECT_EQ(deliveries[1], milliseconds(2));
  EXPECT_EQ(deliveries[2], milliseconds(3));
}

// A zero-delay link delivers inline as serialization completes: one event
// per packet, each delivery at its completion instant, in the order a
// delayed link keeps (shifted by its delay, at two events per packet).
TEST(Link, ZeroDelayDeliversInlineAtCompletion) {
  struct Run {
    std::vector<std::pair<std::int64_t, SimTime>> deliveries;  // (seq, when)
    std::uint64_t events = 0;
  };
  const auto run = [](core::SimDuration delay) {
    Scheduler sched;
    LinkConfig cfg;
    cfg.rate = Bandwidth::mbps(8);
    cfg.propagation_delay = delay;
    Link link(sched, cfg, core::Rng(1));
    Run out;
    for (int i = 0; i < 5; ++i) {
      Packet pkt = make_packet(500 * (1 + i % 2));  // 0.5 or 1 ms each
      pkt.seq = i;
      link.send(pkt, [&](const Packet& p) { out.deliveries.emplace_back(p.seq, sched.now()); });
    }
    sched.run();
    out.events = sched.events_executed();
    return out;
  };
  const Run inline_run = run(0);
  const Run delayed = run(milliseconds(3));
  EXPECT_EQ(inline_run.events, 5u);
  EXPECT_EQ(delayed.events, 10u);
  ASSERT_EQ(inline_run.deliveries.size(), 5u);
  ASSERT_EQ(delayed.deliveries.size(), 5u);
  SimTime completes = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    completes += core::microseconds(500 * (1 + static_cast<std::int64_t>(i) % 2));
    EXPECT_EQ(inline_run.deliveries[i].first, static_cast<std::int64_t>(i));
    EXPECT_EQ(inline_run.deliveries[i].second, completes);
    EXPECT_EQ(delayed.deliveries[i].first, inline_run.deliveries[i].first);
    EXPECT_EQ(delayed.deliveries[i].second, completes + milliseconds(3));
  }
}

TEST(Link, QueueOverflowDropsTail) {
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(8);
  cfg.propagation_delay = 0;
  cfg.queue_capacity = Bytes(2500);  // room for two 1000 B packets + change
  Link link(sched, cfg, core::Rng(1));

  int delivered = 0;
  for (int i = 0; i < 5; ++i) {
    link.send(make_packet(1000), [&](const Packet&) { ++delivered; });
  }
  sched.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().queue_drops, 3u);
  EXPECT_EQ(link.stats().packets_sent, 5u);
  EXPECT_EQ(link.stats().packets_delivered, 2u);
}

TEST(Link, QueueDrainsAllowingLaterPackets) {
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(8);
  cfg.propagation_delay = 0;
  cfg.queue_capacity = Bytes(1500);
  Link link(sched, cfg, core::Rng(1));

  int delivered = 0;
  link.send(make_packet(1000), [&](const Packet&) { ++delivered; });
  // After the first packet serializes (1 ms), the queue has room again.
  sched.schedule_at(milliseconds(2), [&] {
    link.send(make_packet(1000), [&](const Packet&) { ++delivered; });
  });
  sched.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(link.stats().queue_drops, 0u);
}

TEST(Link, RandomLossDropsExpectedFraction) {
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate = Bandwidth::gbps(10);
  cfg.propagation_delay = 0;
  cfg.queue_capacity = Bytes(1'000'000'000);
  cfg.random_loss = 0.1;
  Link link(sched, cfg, core::Rng(77));

  int delivered = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    link.send(make_packet(100), [&](const Packet&) { ++delivered; });
  }
  sched.run();
  EXPECT_NEAR(static_cast<double>(n - delivered) / n, 0.1, 0.01);
  EXPECT_EQ(link.stats().random_drops, static_cast<std::uint64_t>(n - delivered));
}

TEST(Link, StatsCountBytes) {
  Scheduler sched;
  Link link(sched, LinkConfig{}, core::Rng(1));
  link.send(make_packet(1500), [](const Packet&) {});
  link.send(make_packet(500), [](const Packet&) {});
  sched.run();
  EXPECT_EQ(link.stats().bytes_delivered, 2000);
}

TEST(Link, RateChangeAppliesToAlreadyQueuedPackets) {
  // Ten packets are queued at 8 Mbps (1 ms each); after the first two have
  // been served the link degrades 100x. The remaining packets must be
  // served at the *new* rate, not at their enqueue-time rate.
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(8);
  cfg.propagation_delay = 0;
  cfg.queue_capacity = Bytes(20'000);
  Link link(sched, cfg, core::Rng(1));
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    link.send(make_packet(1000), [&](const Packet&) { ++delivered; });
  }
  sched.schedule_at(milliseconds(2), [&] { link.set_rate(Bandwidth::kbps(80)); });
  sched.run_until(milliseconds(50));
  // Two fast packets plus at most one slow one (100 ms each) by t=50ms.
  EXPECT_LE(delivered, 3);
  sched.run_until(seconds(2));
  EXPECT_EQ(delivered, 10);  // the rest drain at the degraded rate
}

TEST(Link, SetRateChangesServiceSpeed) {
  Scheduler sched;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(8);
  cfg.propagation_delay = 0;
  Link link(sched, cfg, core::Rng(1));

  SimTime second_delivery = -1;
  link.send(make_packet(1000), [](const Packet&) {});
  link.set_rate(Bandwidth::mbps(80));  // 10x faster for the next packet
  link.send(make_packet(1000), [&](const Packet&) { second_delivery = sched.now(); });
  sched.run();
  // First packet: 1 ms. Second: 0.1 ms after that.
  EXPECT_EQ(second_delivery, milliseconds(1) + core::microseconds(100));
}

}  // namespace
}  // namespace swiftest::netsim
