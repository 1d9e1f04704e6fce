#include "netsim/fair_link.hpp"

#include <gtest/gtest.h>

#include "stats/descriptive.hpp"

namespace swiftest::netsim {
namespace {

using core::Bandwidth;
using core::milliseconds;
using core::seconds;

Packet make_packet(std::uint64_t flow, std::int32_t size = 1000) {
  Packet p;
  p.flow_id = flow;
  p.size_bytes = size;
  return p;
}

// A constant-rate datagram source feeding the fair link.
void drive_flow(Scheduler& sched, FairLink& link, std::uint64_t flow,
                Bandwidth rate, core::SimDuration duration,
                std::int32_t size = 1000) {
  const core::SimDuration gap = rate.transmit_time(core::Bytes(size));
  const auto count = static_cast<int>(duration / gap);
  for (int i = 0; i < count; ++i) {
    sched.schedule_at(i * gap, [&link, flow, size] {
      link.send(make_packet(flow, size), [](const Packet&) {});
    });
  }
}

TEST(FairLink, SingleFlowGetsFullRate) {
  Scheduler sched;
  FairLink link(sched, FairLinkConfig{Bandwidth::mbps(50), 0}, core::Rng(1));
  drive_flow(sched, link, 1, Bandwidth::mbps(100), seconds(1));
  sched.run();
  const double mbps = static_cast<double>(link.flow_bytes_delivered(1)) * 8.0 / 1e6;
  EXPECT_NEAR(mbps, 50.0, 3.0);  // capped at the link rate
}

TEST(FairLink, AggressiveFlowCannotStarveCompetitor) {
  Scheduler sched;
  FairLink link(sched, FairLinkConfig{Bandwidth::mbps(50), 0}, core::Rng(1));
  // Flow 1 floods at 10x the link rate; flow 2 politely offers half the link.
  drive_flow(sched, link, 1, Bandwidth::mbps(500), seconds(2));
  drive_flow(sched, link, 2, Bandwidth::mbps(25), seconds(2));
  sched.run();
  const double f1 = static_cast<double>(link.flow_bytes_delivered(1)) * 8.0 / 2e6;
  const double f2 = static_cast<double>(link.flow_bytes_delivered(2)) * 8.0 / 2e6;
  // DRR: the polite flow gets essentially all it asked for.
  EXPECT_NEAR(f2, 25.0, 3.0);
  EXPECT_NEAR(f1, 25.0, 4.0);  // the flood gets only the remainder
}

TEST(FairLink, EqualFloodsShareEqually) {
  Scheduler sched;
  FairLink link(sched, FairLinkConfig{Bandwidth::mbps(60), 0}, core::Rng(1));
  for (std::uint64_t flow = 1; flow <= 3; ++flow) {
    drive_flow(sched, link, flow, Bandwidth::mbps(200), seconds(1));
  }
  sched.run();
  for (std::uint64_t flow = 1; flow <= 3; ++flow) {
    const double mbps = static_cast<double>(link.flow_bytes_delivered(flow)) * 8.0 / 1e6;
    EXPECT_NEAR(mbps, 20.0, 3.0) << flow;
  }
}

TEST(FairLink, UnevenPacketSizesStillFairInBytes) {
  Scheduler sched;
  FairLink link(sched, FairLinkConfig{Bandwidth::mbps(40), 0}, core::Rng(1));
  drive_flow(sched, link, 1, Bandwidth::mbps(100), seconds(1), 1400);
  drive_flow(sched, link, 2, Bandwidth::mbps(100), seconds(1), 300);
  sched.run();
  const double f1 = static_cast<double>(link.flow_bytes_delivered(1)) * 8.0 / 1e6;
  const double f2 = static_cast<double>(link.flow_bytes_delivered(2)) * 8.0 / 1e6;
  // DRR serves bytes, not packets: both flows get ~half the link.
  EXPECT_NEAR(f1, 20.0, 4.0);
  EXPECT_NEAR(f2, 20.0, 4.0);
}

TEST(FairLink, JainIndexNearOneUnderContention) {
  Scheduler sched;
  FairLink link(sched, FairLinkConfig{Bandwidth::mbps(80), 0}, core::Rng(1));
  for (std::uint64_t flow = 1; flow <= 4; ++flow) {
    drive_flow(sched, link, flow, Bandwidth::mbps(100 + 40 * static_cast<double>(flow)),
               seconds(1));
  }
  sched.run();
  std::vector<double> shares;
  for (std::uint64_t flow = 1; flow <= 4; ++flow) {
    shares.push_back(static_cast<double>(link.flow_bytes_delivered(flow)));
  }
  EXPECT_GT(swiftest::stats::jain_fairness(shares), 0.98);
}

TEST(FairLink, PerFlowQueueOverflowDropsOnlyThatFlow) {
  Scheduler sched;
  FairLinkConfig cfg{Bandwidth::mbps(10), 0};
  cfg.per_flow_queue = core::Bytes(3000);
  FairLink link(sched, cfg, core::Rng(1));
  // A burst of 10 packets into flow 1 overflows its 3-packet queue.
  for (int i = 0; i < 10; ++i) link.send(make_packet(1), [](const Packet&) {});
  link.send(make_packet(2), [](const Packet&) {});
  sched.run();
  EXPECT_GT(link.stats().queue_drops, 0u);
  EXPECT_EQ(link.flow_bytes_delivered(2), 1000);
}

TEST(FairLink, DeliveryAfterPropagation) {
  Scheduler sched;
  FairLink link(sched, FairLinkConfig{Bandwidth::mbps(8), milliseconds(10)},
                core::Rng(1));
  core::SimTime delivered_at = -1;
  link.send(make_packet(1, 1000), [&](const Packet&) { delivered_at = sched.now(); });
  sched.run();
  EXPECT_EQ(delivered_at, milliseconds(11));  // 1 ms serialization + 10 ms prop
}

// A zero-delay FairLink delivers inline as serialization completes: one
// event per packet, each delivery at its completion instant, in the DRR
// order a delayed link keeps (shifted by its delay, at two events per
// packet).
TEST(FairLink, ZeroDelayDeliversInlineAtCompletion) {
  struct Delivery {
    std::uint64_t flow;
    std::int64_t seq;
    core::SimTime when;
  };
  struct Run {
    std::vector<Delivery> deliveries;
    std::uint64_t events = 0;
  };
  const auto run = [](core::SimDuration delay) {
    Scheduler sched;
    FairLink link(sched, FairLinkConfig{Bandwidth::mbps(8), delay}, core::Rng(1));
    Run out;
    // Flow 1 sends 1000 B packets, flow 2 400 B ones: DRR interleaves them
    // unevenly, so the order pins the deficit bookkeeping too.
    for (int i = 0; i < 6; ++i) {
      for (std::uint64_t flow = 1; flow <= 2; ++flow) {
        Packet pkt = make_packet(flow, flow == 1 ? 1000 : 400);
        pkt.seq = i;
        link.send(pkt, [&](const Packet& p) {
          out.deliveries.push_back({p.flow_id, p.seq, sched.now()});
        });
      }
    }
    sched.run();
    out.events = sched.events_executed();
    return out;
  };
  const Run inline_run = run(0);
  const Run delayed = run(milliseconds(3));
  EXPECT_EQ(inline_run.events, 12u);
  EXPECT_EQ(delayed.events, 24u);
  ASSERT_EQ(inline_run.deliveries.size(), 12u);
  ASSERT_EQ(delayed.deliveries.size(), 12u);
  // Quantum 1500 B. Flow 1's first packet starts alone; its carried-over
  // deficit then covers two more before flow 2 gets three a round.
  const std::uint64_t kDrrOrder[] = {1, 1, 1, 2, 2, 2, 1, 2, 2, 2, 1, 1};
  core::SimTime completes = 0;
  for (std::size_t i = 0; i < 12; ++i) {
    const Delivery& d = inline_run.deliveries[i];
    EXPECT_EQ(d.flow, kDrrOrder[i]) << i;
    completes += core::microseconds(d.flow == 1 ? 1000 : 400);  // 1 byte/us
    EXPECT_EQ(d.when, completes) << i;
    EXPECT_EQ(delayed.deliveries[i].flow, d.flow) << i;
    EXPECT_EQ(delayed.deliveries[i].seq, d.seq) << i;
    EXPECT_EQ(delayed.deliveries[i].when, completes + milliseconds(3)) << i;
  }
}

TEST(FairLink, RandomLossCounted) {
  Scheduler sched;
  FairLinkConfig cfg{Bandwidth::gbps(1), 0};
  cfg.per_flow_queue = core::megabytes(1);  // the whole burst fits
  cfg.random_loss = 0.2;
  FairLink link(sched, cfg, core::Rng(7));
  int delivered = 0;
  for (int i = 0; i < 5000; ++i) {
    link.send(make_packet(1, 100), [&](const Packet&) { ++delivered; });
  }
  sched.run();
  EXPECT_NEAR(static_cast<double>(delivered) / 5000.0, 0.8, 0.03);
}

TEST(FairLink, SteadyStateChurnDoesNotGrowThePools) {
  Scheduler sched;
  FairLink link(sched, FairLinkConfig{Bandwidth::mbps(50), milliseconds(2)},
                core::Rng(1));
  const core::SimDuration gap =
      Bandwidth::mbps(30).transmit_time(core::Bytes(1000));
  const auto churn = [&] {
    for (std::uint64_t flow = 1; flow <= 4; ++flow) {
      for (int i = 0; i < 100; ++i) {
        sched.schedule_in(i * gap, [&link, flow] {
          link.send(make_packet(flow), [](const Packet&) {});
        });
      }
    }
    sched.run();
  };
  churn();  // warm-up: slab, transit pool, and flow slots reach full size
  const Scheduler::AllocStats warm = sched.alloc_stats();
  churn();  // steady state re-uses every pooled structure
  const Scheduler::AllocStats after = sched.alloc_stats();
  EXPECT_EQ(after.transit_nodes, warm.transit_nodes);
  EXPECT_EQ(after.slab_slots, warm.slab_slots);
  EXPECT_EQ(after.callback_heap_fallbacks, warm.callback_heap_fallbacks);
  EXPECT_EQ(link.active_flows(), 4u);
}

}  // namespace
}  // namespace swiftest::netsim
