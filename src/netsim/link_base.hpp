// Common interface for bottleneck links.
//
// Path (and everything above it) only needs to enqueue packets, know the
// propagation delay, and occasionally change the rate; both the FIFO
// DropTail Link and the deficit-round-robin FairLink satisfy it, so testers
// can run over either queueing discipline.
//
// Links carry pooled TransitNodes (transit_pool.hpp); send(Packet,
// DeliveryFn) is the adapter for callers without a Path.
#pragma once

#include <cstdint>
#include <utility>

#include "core/time.hpp"
#include "core/units.hpp"
#include "netsim/packet.hpp"
#include "netsim/transit_pool.hpp"

namespace swiftest::netsim {

/// Counters shared by all link implementations.
struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t random_drops = 0;
  std::int64_t bytes_delivered = 0;
};

class LinkBase {
 public:
  using DeliveryFn = netsim::DeliveryFn;

  virtual ~LinkBase() = default;

  /// Enqueues transit node `idx` for delivery after queueing,
  /// serialization, and propagation. The link owns the node until then and
  /// releases it if it drops the packet; delivery goes through hand_on.
  virtual void send_node(std::uint32_t idx) = 0;

  /// Enqueues a packet for delivery to `sink` — unless dropped.
  void send(Packet packet, DeliveryFn sink) {
    const std::uint32_t idx = pool_.alloc();
    TransitNode& node = pool_.at(idx);
    node.packet = std::move(packet);
    node.sink = std::move(sink);
    send_node(idx);
  }

  /// Replaces the service rate, effective from the next packet to begin
  /// serialization.
  virtual void set_rate(core::Bandwidth rate) = 0;

  [[nodiscard]] virtual core::SimDuration propagation_delay() const = 0;
  [[nodiscard]] virtual const LinkStats& stats() const = 0;

 protected:
  explicit LinkBase(TransitPool& pool) noexcept : pool_(pool) {}

  /// Passes a delivered node back to its Path (TransitNode::path) or, on a
  /// last leg, releases it and calls its sink. Defined in path.cpp.
  void hand_on(std::uint32_t idx);

  // The scheduler's shared per-shard pool; it outlives every link and path.
  TransitPool& pool_;
};

}  // namespace swiftest::netsim
