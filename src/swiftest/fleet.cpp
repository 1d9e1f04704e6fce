#include "swiftest/fleet.hpp"

namespace swiftest::swift {

ServerFleet::ServerFleet(netsim::Scheduler& sched, std::size_t count,
                         ServerConfig config) {
  servers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    servers_.push_back(std::make_unique<SwiftestServer>(sched, config));
  }
}

ServerFleet::ServerFleet(netsim::Testbed& testbed, ServerConfig config) {
  if (!testbed.fleet_config().server_uplink.is_zero()) {
    config.uplink = testbed.fleet_config().server_uplink;
  }
  const std::size_t count = testbed.server_count();
  servers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    servers_.push_back(
        std::make_unique<SwiftestServer>(testbed.scheduler(), config));
  }
}

ServerStats ServerFleet::aggregate_stats() const {
  ServerStats total;
  for (const auto& server : servers_) {
    const ServerStats& s = server->stats();
    total.requests_accepted += s.requests_accepted;
    total.requests_rejected += s.requests_rejected;
    total.rate_updates_applied += s.rate_updates_applied;
    total.rate_updates_stale += s.rate_updates_stale;
    total.completions += s.completions;
    total.sessions_reaped += s.sessions_reaped;
    total.probe_bytes_sent += s.probe_bytes_sent;
    total.garbled_messages += s.garbled_messages;
  }
  return total;
}

std::size_t ServerFleet::active_sessions() const noexcept {
  std::size_t total = 0;
  for (const auto& server : servers_) total += server->active_sessions();
  return total;
}

}  // namespace swiftest::swift
