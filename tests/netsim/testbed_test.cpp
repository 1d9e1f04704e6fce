#include "netsim/testbed.hpp"

#include <gtest/gtest.h>

#include "netsim/scenario.hpp"
#include "netsim/udp.hpp"
#include "swiftest/fleet.hpp"
#include "swiftest/wire_client.hpp"

namespace swiftest::netsim {
namespace {

using core::Bandwidth;
using core::milliseconds;
using core::seconds;

TestbedConfig contention_cfg(std::size_t clients) {
  TestbedConfig cfg;
  cfg.fleet.server_count = 1;
  cfg.fleet.server_uplink = Bandwidth::mbps(100);
  ClientAccessConfig client;
  client.access_rate = Bandwidth::mbps(1000);  // access never the bottleneck
  client.access_delay = milliseconds(10);
  cfg.clients.assign(clients, client);
  return cfg;
}

/// Runs `n` concurrent Swiftest wire tests against one shared 100 Mbps
/// server egress and returns each client's estimate.
std::vector<double> run_concurrent(std::size_t n, std::uint64_t seed) {
  Testbed testbed(contention_cfg(n), seed);
  const swift::ModelRegistry registry;
  swift::ServerFleet fleet(testbed, {});

  swift::SwiftestConfig cfg;
  cfg.tech = dataset::AccessTech::kWiFi5;  // initial mode well above 100 Mbps
  std::vector<std::unique_ptr<swift::WireClient>> clients;
  std::vector<double> estimates(n, -1.0);
  std::size_t completed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto wire = std::make_unique<swift::WireClient>(cfg, registry);
    wire->attach_fleet(fleet);
    wire->start(testbed.client(i), [&estimates, &completed, i](const bts::BtsResult& r) {
      estimates[i] = r.bandwidth_mbps;
      ++completed;
    });
    clients.push_back(std::move(wire));
  }
  Scheduler& sched = testbed.scheduler();
  while (completed < n && sched.now() < seconds(10)) {
    sched.run_until(sched.now() + milliseconds(100));
  }
  EXPECT_EQ(completed, n);
  return estimates;
}

TEST(Testbed, SharedEgressIsOneQueuePerServer) {
  Testbed testbed(contention_cfg(3), 7);
  ASSERT_EQ(testbed.client_count(), 3u);
  LinkBase* egress = testbed.server_egress(0);
  ASSERT_NE(egress, nullptr);
  // Every client's path to server 0 routes through the SAME link object —
  // the defining property the old per-path private egress lacked.
  for (std::size_t c = 0; c < testbed.client_count(); ++c) {
    EXPECT_EQ(testbed.client(c).server_path(0).server_egress(), egress) << c;
  }
}

TEST(Testbed, UnconstrainedFleetHasNoEgress) {
  TestbedConfig cfg;
  cfg.fleet.server_count = 2;  // server_uplink stays zero
  Testbed testbed(cfg, 7);
  EXPECT_EQ(testbed.server_egress(0), nullptr);
  EXPECT_FALSE(testbed.client(0).server_path(0).has_server_egress());
}

TEST(Testbed, TwoClientsShareServerEgressFairly) {
  // The tentpole acceptance check: one client alone saturates the 100 Mbps
  // server uplink; two concurrent clients each settle near a 50 Mbps share.
  const auto solo = run_concurrent(1, 21);
  ASSERT_EQ(solo.size(), 1u);
  EXPECT_NEAR(solo[0], 100.0, 15.0);

  const auto pair = run_concurrent(2, 22);
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_NEAR(pair[0], 50.0, 7.5);
  EXPECT_NEAR(pair[1], 50.0, 7.5);
}

TEST(Testbed, AddClientMidSimulation) {
  Testbed testbed(contention_cfg(1), 9);
  Scheduler& sched = testbed.scheduler();
  sched.run_until(seconds(1));
  ClientAccessConfig extra;
  extra.access_rate = Bandwidth::mbps(50);
  const std::size_t index = testbed.add_client(extra);
  EXPECT_EQ(index, 1u);
  ASSERT_EQ(testbed.client_count(), 2u);
  // The late joiner shares the existing egress and has working paths.
  EXPECT_EQ(testbed.client(1).server_path(0).server_egress(),
            testbed.server_egress(0));
  UdpFlow flow(sched, testbed.client(1).server_path(0), 0xF1);
  std::int64_t bytes = 0;
  flow.set_on_delivered([&](std::int64_t b, std::int64_t) { bytes += b; });
  flow.set_rate(Bandwidth::mbps(40));
  sched.run_until(seconds(2));
  flow.stop();
  EXPECT_GT(bytes, 0);
}

// The per-packet event budget, pinned without perfbench: one fleet-shaped
// wire test — a client slot on 8 x 100 Mbps shared egress, a ServerFleet,
// a WireClient forced onto one server, as the packet backend runs each
// arrival. Every count is a pure function of the seed, so a change that
// adds events (or transit nodes) per datagram fails here exactly.
TEST(Testbed, FleetShapedWireTestEventBudget) {
  TestbedConfig cfg;
  cfg.fleet.server_count = 8;
  cfg.fleet.server_uplink = Bandwidth::mbps(100);
  ClientAccessConfig slot;
  slot.access_rate = Bandwidth::mbps(1000);
  cfg.clients = {slot};
  Testbed testbed(cfg, 2024);
  swift::ServerConfig server_cfg;
  server_cfg.uplink = Bandwidth::mbps(100);
  swift::ServerFleet fleet(testbed, server_cfg);
  ClientContext& ctx = testbed.client(0);
  ctx.access_link().set_rate(Bandwidth::mbps(240));  // needs three servers

  const swift::ModelRegistry registry;
  swift::SwiftestConfig wc_cfg;
  wc_cfg.tech = dataset::AccessTech::k5G;
  wc_cfg.server_uplink_mbps = 100.0;
  swift::WireClient wire(wc_cfg, registry, server_cfg);
  wire.attach_fleet(fleet);
  wire.set_forced_server(3);
  double estimate = -1.0;
  wire.start(ctx, [&estimate](const bts::BtsResult& r) { estimate = r.bandwidth_mbps; });
  Scheduler& sched = testbed.scheduler();
  sched.run_until(seconds(40));

  EXPECT_NEAR(estimate, 240.0, 24.0);
  std::uint64_t egress_delivered = 0;
  for (std::size_t s = 0; s < testbed.server_count(); ++s) {
    egress_delivered += testbed.server_egress(s)->stats().packets_delivered;
  }
  const std::uint64_t datagrams = ctx.access_link().stats().packets_delivered;
  // 87,004 events for 17,279 datagrams: each pays its egress serialization,
  // backbone timer, access serialization and access delivery (an egress
  // delivery at zero delay is inline, not an event) plus the client's
  // pacing and the protocol's control traffic. One transit node per
  // datagram in flight.
  EXPECT_EQ(datagrams, 17'279u);
  EXPECT_EQ(egress_delivered, 17'440u);
  EXPECT_EQ(sched.events_executed(), 87'004u);
  EXPECT_EQ(sched.transit_pool().capacity(), 4'920u);
  EXPECT_EQ(sched.transit_pool().live(), 0u);
}

TEST(Scenario, FacadeIsDeterministicPerSeed) {
  // Two facade scenarios with one seed must produce bit-identical topology
  // and ping draws (the whole legacy RNG draw order is preserved).
  ScenarioConfig cfg;
  cfg.server_uplink = Bandwidth::mbps(100);
  Scenario a(cfg, 77);
  Scenario b(cfg, 77);
  ASSERT_EQ(a.server_count(), b.server_count());
  for (std::size_t i = 0; i < a.server_count(); ++i) {
    EXPECT_EQ(a.server_path(i).base_rtt(), b.server_path(i).base_rtt()) << i;
    EXPECT_EQ(a.measure_ping(i), b.measure_ping(i)) << i;
  }
  EXPECT_EQ(a.fork_rng().next_u64(), b.fork_rng().next_u64());
}

}  // namespace
}  // namespace swiftest::netsim
