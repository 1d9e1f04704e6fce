#include "netsim/path.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "netsim/fair_link.hpp"
#include "netsim/scenario.hpp"
#include "netsim/udp.hpp"
#include "swiftest/client.hpp"

namespace swiftest::netsim {
namespace {

using core::Bandwidth;
using core::milliseconds;
using core::seconds;

TEST(Path, BaseRttCombinesDelays) {
  Scheduler sched;
  Link link(sched, LinkConfig{Bandwidth::mbps(100), milliseconds(10)}, core::Rng(1));
  Path path(sched, link, milliseconds(15));
  EXPECT_EQ(path.base_rtt(), milliseconds(50));
}

TEST(Path, DownstreamTraversesBackboneThenAccess) {
  Scheduler sched;
  Link link(sched, LinkConfig{Bandwidth::mbps(8), milliseconds(10)}, core::Rng(1));
  Path path(sched, link, milliseconds(15));
  core::SimTime delivered_at = -1;
  Packet pkt;
  pkt.size_bytes = 1000;  // 1 ms serialization at 8 Mbps
  path.send_downstream(pkt, [&](const Packet&) { delivered_at = sched.now(); });
  sched.run();
  EXPECT_EQ(delivered_at, milliseconds(15 + 1 + 10));
}

TEST(Path, UpstreamIsPureDelay) {
  Scheduler sched;
  Link link(sched, LinkConfig{Bandwidth::mbps(8), milliseconds(10)}, core::Rng(1));
  Path path(sched, link, milliseconds(15));
  core::SimTime delivered_at = -1;
  Packet pkt;
  pkt.size_bytes = 40;
  path.send_upstream(pkt, [&](const Packet&) { delivered_at = sched.now(); });
  sched.run();
  EXPECT_EQ(delivered_at, milliseconds(25));
}

TEST(Path, ServerEgressCapsDownstreamRate) {
  Scheduler sched;
  // A gigabit access link, but a 100 Mbps server uplink.
  Link link(sched, LinkConfig{Bandwidth::gbps(1), milliseconds(5),
                              core::megabytes(8)},
            core::Rng(1));
  Path path(sched, link, milliseconds(5));
  path.set_server_egress(Bandwidth::mbps(100), core::Rng(2));
  ASSERT_TRUE(path.has_server_egress());

  UdpFlow flow(sched, path, 1);
  std::int64_t bytes = 0;
  flow.set_on_delivered([&](std::int64_t b, std::int64_t) { bytes += b; });
  flow.set_rate(Bandwidth::mbps(800));  // blasts well past the server uplink
  sched.run_until(seconds(2));
  flow.stop();
  const double mbps = static_cast<double>(bytes) * 8.0 / 2.0 / 1e6;
  EXPECT_LT(mbps, 105.0);
  EXPECT_GT(mbps, 85.0);
  EXPECT_GT(path.server_egress()->stats().queue_drops, 0u);
}

TEST(Path, ServerEgressCanOnlyBeSetOnce) {
  Scheduler sched;
  Link link(sched, LinkConfig{Bandwidth::mbps(100), milliseconds(10)}, core::Rng(1));
  Link shared(sched, LinkConfig{Bandwidth::mbps(100), milliseconds(0)}, core::Rng(2));
  Path path(sched, link, milliseconds(15));
  path.set_server_egress(Bandwidth::mbps(100), core::Rng(3));
  EXPECT_THROW(path.set_server_egress(Bandwidth::mbps(50), core::Rng(4)),
               std::logic_error);
  EXPECT_THROW(path.attach_server_egress(shared), std::logic_error);
}

TEST(Path, ServerEgressCannotBeSetAfterTraffic) {
  Scheduler sched;
  Link link(sched, LinkConfig{Bandwidth::mbps(100), milliseconds(10)}, core::Rng(1));
  Link shared(sched, LinkConfig{Bandwidth::mbps(100), milliseconds(0)}, core::Rng(2));
  Path path(sched, link, milliseconds(15));
  Packet pkt;
  pkt.size_bytes = 100;
  path.send_downstream(pkt, [](const Packet&) {});
  EXPECT_THROW(path.set_server_egress(Bandwidth::mbps(100), core::Rng(3)),
               std::logic_error);
  EXPECT_THROW(path.attach_server_egress(shared), std::logic_error);
}

// A client sink that records its own destruction: `owner` moves with the
// callable, so each sink sent counts exactly one owning destruction however
// often the pool relocates it. Copies would be extra owners; none is made.
struct CountedSink {
  std::vector<int>* destroyed = nullptr;
  int* copies = nullptr;
  int* delivered = nullptr;
  std::size_t id = 0;
  bool owner = true;

  CountedSink(std::vector<int>* d, int* c, int* n, std::size_t i)
      : destroyed(d), copies(c), delivered(n), id(i) {}
  CountedSink(const CountedSink& o)
      : destroyed(o.destroyed), copies(o.copies), delivered(o.delivered), id(o.id) {
    ++*copies;
  }
  CountedSink(CountedSink&& o) noexcept
      : destroyed(o.destroyed), copies(o.copies), delivered(o.delivered), id(o.id) {
    o.owner = false;
  }
  CountedSink& operator=(const CountedSink&) = delete;
  CountedSink& operator=(CountedSink&&) = delete;
  ~CountedSink() {
    if (owner) ++(*destroyed)[id];
  }
  void operator()(const Packet&) const { ++*delivered; }
};

struct OwnershipCase {
  const char* name;
  FairLinkConfig egress;
  LinkConfig access;
};

// A fleet-shaped path — shared zero-delay FairLink egress, backbone delay,
// DropTail access Link — loses packets at each of its four drop sites.
// Whatever drops a packet must release its one transit node and destroy
// the client sink with it; nothing may leak or be released twice.
TEST(Path, EveryDropReleasesItsNodeAndSinkExactlyOnce) {
  const auto egress_cfg = [](core::Bytes per_flow, double loss) {
    FairLinkConfig cfg{Bandwidth::mbps(100), 0};
    cfg.per_flow_queue = per_flow;
    cfg.random_loss = loss;
    return cfg;
  };
  const auto access_cfg = [](core::Bytes queue, double loss) {
    LinkConfig cfg{Bandwidth::mbps(50), milliseconds(5)};
    cfg.queue_capacity = queue;
    cfg.random_loss = loss;
    return cfg;
  };
  const OwnershipCase cases[] = {
      {"egress per-flow overflow", egress_cfg(core::Bytes(20'000), 0.0),
       access_cfg(core::megabytes(8), 0.0)},
      {"access DropTail overflow", egress_cfg(core::megabytes(8), 0.0),
       access_cfg(core::Bytes(20'000), 0.0)},
      {"egress random loss", egress_cfg(core::megabytes(8), 0.25),
       access_cfg(core::megabytes(8), 0.0)},
      {"access random loss", egress_cfg(core::megabytes(8), 0.0),
       access_cfg(core::megabytes(8), 0.25)},
  };
  constexpr std::size_t kSent = 400;
  for (const OwnershipCase& c : cases) {
    SCOPED_TRACE(c.name);
    Scheduler sched;
    FairLink egress(sched, c.egress, core::Rng(11));
    Link access(sched, c.access, core::Rng(12));
    Path path(sched, access, milliseconds(7));
    path.attach_server_egress(egress);

    std::vector<int> destroyed(kSent, 0);
    int copies = 0;
    int delivered = 0;
    for (std::size_t i = 0; i < kSent; ++i) {
      Packet pkt;
      pkt.flow_id = 1 + i % 2;
      pkt.seq = static_cast<std::int64_t>(i);
      pkt.size_bytes = 1000;
      path.send_downstream(pkt, CountedSink(&destroyed, &copies, &delivered, i));
    }
    sched.run();

    const LinkStats& e = egress.stats();
    const LinkStats& a = access.stats();
    const std::uint64_t dropped =
        e.queue_drops + e.random_drops + a.queue_drops + a.random_drops;
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(delivered, 0);
    EXPECT_EQ(static_cast<std::uint64_t>(delivered) + dropped, kSent);
    EXPECT_EQ(a.packets_delivered, static_cast<std::uint64_t>(delivered));
    EXPECT_EQ(sched.transit_pool().live(), 0u);
    EXPECT_EQ(copies, 0);
    for (std::size_t i = 0; i < kSent; ++i) {
      EXPECT_EQ(destroyed[i], 1) << "sink " << i;
    }
  }
}

TEST(Scenario, ServerUplinkConfigCapsSingleServerTests) {
  ScenarioConfig cfg;
  cfg.access_rate = Bandwidth::mbps(500);
  cfg.server_uplink = Bandwidth::mbps(100);
  Scenario scenario(cfg, 3);
  UdpFlow flow(scenario.scheduler(), scenario.server_path(0), 1);
  std::int64_t bytes = 0;
  flow.set_on_delivered([&](std::int64_t b, std::int64_t) { bytes += b; });
  flow.set_rate(Bandwidth::mbps(400));
  scenario.scheduler().run_until(seconds(2));
  flow.stop();
  const double mbps = static_cast<double>(bytes) * 8.0 / 2.0 / 1e6;
  EXPECT_LT(mbps, 105.0);
}

TEST(Scenario, SwiftestAggregatesBudgetServerUplinks) {
  // With 100 Mbps server uplinks *enforced by the network*, Swiftest still
  // measures a 300 Mbps client correctly because it enlists enough servers.
  ScenarioConfig cfg;
  cfg.access_rate = Bandwidth::mbps(300);
  cfg.access_delay = milliseconds(10);
  cfg.server_uplink = Bandwidth::mbps(100);
  Scenario scenario(cfg, 4);
  static const swift::ModelRegistry registry;
  swift::SwiftestConfig swift_cfg;
  swift_cfg.tech = dataset::AccessTech::k5G;
  swift::SwiftestClient client(swift_cfg, registry);
  const auto result = client.run(scenario);
  EXPECT_NEAR(result.bandwidth_mbps, 300.0, 30.0);
  EXPECT_GE(result.connections_used, 3u);
}

}  // namespace
}  // namespace swiftest::netsim
