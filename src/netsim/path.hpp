// A duplex path between a test server and a client.
//
// Downstream (server -> client) traffic optionally traverses the server's
// own egress link (a budget VM's 100 Mbps uplink can itself bottleneck a
// test), then a per-server backbone delay, then the client's shared access
// link — the bottleneck whose rate is the quantity a bandwidth test
// estimates. Upstream (client -> server) traffic is ACKs and small control
// messages, modelled as a pure delay (the uplink is never the bottleneck in
// a download test).
#pragma once

#include <cstdint>
#include <memory>

#include "core/time.hpp"
#include "netsim/link.hpp"
#include "netsim/link_base.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/transit_pool.hpp"

namespace swiftest::netsim {

class Path {
 public:
  using DeliveryFn = LinkBase::DeliveryFn;

  /// `access_link` is shared among all paths of one client; `server_delay` is
  /// the one-way delay between this server and the access link.
  Path(Scheduler& sched, LinkBase& access_link, core::SimDuration server_delay);

  /// Adds a private server-side egress link of the given capacity in front
  /// of the backbone delay. Call at most once, before traffic flows — the
  /// contract is enforced: a second call, a call after attach_server_egress,
  /// or a call once downstream traffic has flowed throws std::logic_error.
  void set_server_egress(core::Bandwidth uplink, core::Rng rng);

  /// Routes this path's downstream traffic through a shared egress link (one
  /// queue per fleet server, contended by every client crossing it — the
  /// Testbed wiring). Same at-most-once / before-traffic contract as
  /// set_server_egress. The link must outlive the path.
  void attach_server_egress(LinkBase& egress);

  /// Server -> client: (optional egress link,) backbone delay, access link.
  /// One transit node carries the packet the whole way; a link that drops
  /// it releases the node and `client_sink` with it.
  void send_downstream(Packet packet, DeliveryFn client_sink);

  /// Client -> server: pure delay, lossless.
  void send_upstream(Packet packet, DeliveryFn server_sink);

  /// Base (unloaded) round-trip time for a small packet, excluding
  /// serialization of data segments.
  [[nodiscard]] core::SimDuration base_rtt() const;

  [[nodiscard]] LinkBase& access_link() noexcept { return link_; }
  [[nodiscard]] core::SimDuration server_delay() const noexcept { return server_delay_; }
  [[nodiscard]] bool has_server_egress() const noexcept { return egress() != nullptr; }
  [[nodiscard]] LinkBase* server_egress() noexcept { return egress(); }

 private:
  [[nodiscard]] LinkBase* egress() const noexcept {
    return owned_egress_ ? owned_egress_.get() : shared_egress_;
  }

  // A downstream packet is one pooled transit node for its whole trip. The
  // egress link hands it back here (LinkBase::hand_on); the backbone timer
  // then queues the same node on the access link, which ends the trip in
  // the client sink. Events capture only {this, node index}.
  friend class LinkBase;
  void start_backbone(std::uint32_t node);

  Scheduler& sched_;
  LinkBase& link_;
  core::SimDuration server_delay_;
  TransitPool& pool_;  // the scheduler's shared per-shard pool
  std::unique_ptr<Link> owned_egress_;   // optional private server uplink
  LinkBase* shared_egress_ = nullptr;    // optional fleet-shared server uplink
  bool downstream_traffic_started_ = false;
};

}  // namespace swiftest::netsim
