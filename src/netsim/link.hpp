// Simulated unidirectional link with a DropTail queue.
//
// Models the three phenomena a bandwidth tester contends with: serialization
// at the link rate (the bandwidth being measured), propagation delay, and
// queue-overflow plus random wireless loss. Multiple flows share the same
// link; their packets interleave in the single FIFO queue, which is what makes
// multi-connection flooding and cross-traffic contention behave correctly.
#pragma once

#include <cstdint>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "core/units.hpp"
#include "netsim/link_base.hpp"
#include "netsim/packet.hpp"
#include "netsim/scheduler.hpp"
#include "netsim/transit_pool.hpp"

namespace swiftest::netsim {

struct LinkConfig {
  core::Bandwidth rate = core::Bandwidth::mbps(100);
  core::SimDuration propagation_delay = core::milliseconds(5);
  /// DropTail queue capacity. Default ~ 1x a 50ms BDP at 100 Mbps.
  core::Bytes queue_capacity = core::kilobytes(625);
  /// Random per-packet loss applied after the queue (wireless corruption).
  double random_loss = 0.0;
};

class Link final : public LinkBase {
 public:
  Link(Scheduler& sched, LinkConfig config, core::Rng rng);

  /// Enqueues a node at the queue tail, or drops (and releases) it when the
  /// DropTail buffer is full.
  void send_node(std::uint32_t idx) override;

  [[nodiscard]] const LinkStats& stats() const noexcept override { return stats_; }
  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }
  [[nodiscard]] core::SimDuration propagation_delay() const noexcept override {
    return config_.propagation_delay;
  }
  [[nodiscard]] core::Bytes queued_bytes() const noexcept { return queued_; }

  /// Replaces the link rate. Takes effect from the next packet to begin
  /// serialization, including packets already waiting in the queue.
  void set_rate(core::Bandwidth rate) override;

 private:
  struct ObsHandles {
    bool bound = false;
    obs::Counter* enqueued = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* queue_drops = nullptr;
    obs::Counter* random_drops = nullptr;
    obs::Gauge* queued_bytes = nullptr;
  };

  void serve_next();
  void complete_serialize();
  void deliver(std::uint32_t node_idx);
  void bind_obs();

  Scheduler& sched_;
  LinkConfig config_;
  core::Rng rng_;
  core::Bytes queued_{0};
  // FIFO of pooled nodes chained through TransitNode::next — no per-packet
  // heap allocation in steady state.
  std::uint32_t queue_head_ = kTransitNil;
  std::uint32_t queue_tail_ = kTransitNil;
  bool serving_ = false;
  LinkStats stats_;
  ObsHandles obs_;
};

}  // namespace swiftest::netsim
