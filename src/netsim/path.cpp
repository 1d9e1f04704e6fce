#include "netsim/path.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace swiftest::netsim {

Path::Path(Scheduler& sched, LinkBase& access_link, core::SimDuration server_delay)
    : sched_(sched),
      link_(access_link),
      server_delay_(server_delay),
      pool_(sched.transit_pool()) {}

void Path::set_server_egress(core::Bandwidth uplink, core::Rng rng) {
  if (egress() != nullptr) {
    throw std::logic_error("Path: server egress already set");
  }
  if (downstream_traffic_started_) {
    throw std::logic_error("Path: cannot set server egress after traffic has flowed");
  }
  LinkConfig cfg;
  cfg.rate = uplink;
  cfg.propagation_delay = 0;  // the backbone delay is modelled separately
  // Server-side buffer: ~50 ms at the uplink rate.
  cfg.queue_capacity = core::Bytes(std::max<std::int64_t>(
      static_cast<std::int64_t>(uplink.bits_per_second() * 0.050 / 8.0), 64 * 1024));
  owned_egress_ = std::make_unique<Link>(sched_, cfg, std::move(rng));
}

void Path::attach_server_egress(LinkBase& egress_link) {
  if (egress() != nullptr) {
    throw std::logic_error("Path: server egress already set");
  }
  if (downstream_traffic_started_) {
    throw std::logic_error("Path: cannot attach server egress after traffic has flowed");
  }
  shared_egress_ = &egress_link;
}

void Path::send_downstream(Packet packet, DeliveryFn client_sink) {
  downstream_traffic_started_ = true;
  const std::uint32_t node = pool_.alloc();
  TransitNode& n = pool_.at(node);
  n.packet = std::move(packet);
  n.sink = std::move(client_sink);
  if (LinkBase* out = egress()) {
    n.path = this;  // the egress link hands the node back (LinkBase::hand_on)
    out->send_node(node);
    return;
  }
  start_backbone(node);
}

void Path::start_backbone(std::uint32_t node) {
  pool_.at(node).path = nullptr;  // the access leg is the last
  sched_.schedule_in(server_delay_, [this, node] { link_.send_node(node); });
}

void LinkBase::hand_on(std::uint32_t idx) {
  if (Path* path = pool_.at(idx).path) {
    path->start_backbone(idx);
  } else {
    pool_.deliver(idx);
  }
}

void Path::send_upstream(Packet packet, DeliveryFn server_sink) {
  const core::SimDuration delay = link_.propagation_delay() + server_delay_;
  const std::uint32_t node = pool_.alloc();
  TransitNode& n = pool_.at(node);
  n.packet = std::move(packet);
  n.sink = std::move(server_sink);
  sched_.schedule_in(delay, [this, node] { pool_.deliver(node); });
}

core::SimDuration Path::base_rtt() const {
  return 2 * (link_.propagation_delay() + server_delay_);
}

}  // namespace swiftest::netsim
