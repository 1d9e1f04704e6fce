// A fleet of Swiftest test servers sharing one simulation.
//
// In deployment (§6) every budget VM runs one server-side module and serves
// many concurrent clients through its single uplink. ServerFleet packages
// that shape for simulation: one multi-endpoint SwiftestServer per testbed
// server slot. Wire clients attach to the fleet (WireClient::attach_fleet)
// and address servers by index; the testbed routes every session bound for
// server i through that server's one shared egress queue.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "netsim/scheduler.hpp"
#include "netsim/testbed.hpp"
#include "swiftest/server.hpp"

namespace swiftest::swift {

class ServerFleet {
 public:
  /// `count` multi-endpoint servers on a bare scheduler, all with `config`.
  ServerFleet(netsim::Scheduler& sched, std::size_t count, ServerConfig config);

  /// One server per testbed server slot. When the testbed's fleet config
  /// constrains the server uplink, it overrides `config.uplink` so the
  /// protocol-level clamp agrees with the simulated egress capacity.
  ServerFleet(netsim::Testbed& testbed, ServerConfig config);

  ServerFleet(const ServerFleet&) = delete;
  ServerFleet& operator=(const ServerFleet&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return servers_.size(); }
  [[nodiscard]] SwiftestServer& server(std::size_t i) { return *servers_.at(i); }

  /// Element-wise sum of all servers' counters.
  [[nodiscard]] ServerStats aggregate_stats() const;
  /// Total live sessions across the fleet.
  [[nodiscard]] std::size_t active_sessions() const noexcept;

 private:
  std::vector<std::unique_ptr<SwiftestServer>> servers_;
};

}  // namespace swiftest::swift
