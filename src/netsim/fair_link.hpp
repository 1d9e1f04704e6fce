// Fair-queuing link (deficit round robin).
//
// §5.1 argues Swiftest's aggressive UDP probing is acceptable because
// "wireless networks have separate mechanisms for ensuring fairness at lower
// layers (e.g., proportional-fair scheduling performed by BSes)". This link
// variant models that backstop: instead of one FIFO, each flow gets its own
// queue and the scheduler serves them deficit-round-robin, so an aggressive
// flow cannot starve a competing one no matter how hard it floods.
//
// Hot-path layout: flow state lives in a dense slot vector (flow_id resolves
// through an unordered side-table that is never iterated, so determinism is
// untouched), and queued packets are TransitPool nodes chained through an
// intrusive per-flow list — no per-packet heap allocation in steady state.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "core/rng.hpp"
#include "core/units.hpp"
#include "netsim/link.hpp"
#include "netsim/link_base.hpp"
#include "netsim/transit_pool.hpp"

namespace swiftest::netsim {

struct FairLinkConfig {
  core::Bandwidth rate = core::Bandwidth::mbps(100);
  core::SimDuration propagation_delay = core::milliseconds(5);
  /// Per-flow queue capacity.
  core::Bytes per_flow_queue = core::kilobytes(256);
  /// DRR quantum added to a flow's deficit each round.
  core::Bytes quantum = core::Bytes(1500);
  double random_loss = 0.0;
};

class FairLink final : public LinkBase {
 public:
  FairLink(Scheduler& sched, FairLinkConfig config, core::Rng rng);

  /// Enqueues a node into its packet's flow queue (keyed by
  /// Packet::flow_id), or drops (and releases) it when that queue is full.
  void send_node(std::uint32_t idx) override;

  void set_rate(core::Bandwidth rate) override;

  [[nodiscard]] const LinkStats& stats() const noexcept override { return stats_; }
  [[nodiscard]] core::SimDuration propagation_delay() const noexcept override {
    return config_.propagation_delay;
  }
  /// Flows ever seen (slots are never reclaimed, matching the historical
  /// std::map semantics).
  [[nodiscard]] std::size_t active_flows() const noexcept { return flows_.size(); }
  /// Bytes delivered so far for one flow (0 if unknown).
  [[nodiscard]] std::int64_t flow_bytes_delivered(std::uint64_t flow_id) const;

 private:
  struct FlowQueue {
    std::uint32_t head = kTransitNil;  // intrusive list of pooled nodes
    std::uint32_t tail = kTransitNil;
    core::Bytes queued{0};
    std::int64_t deficit = 0;
    std::int64_t delivered_bytes = 0;
  };
  struct ObsHandles {
    bool bound = false;
    obs::Counter* enqueued = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* queue_drops = nullptr;
    obs::Counter* random_drops = nullptr;
    obs::Gauge* active_flows = nullptr;
  };

  std::uint32_t flow_slot(std::uint64_t flow_id);
  void complete_serialize(std::uint32_t slot);
  void deliver(std::uint32_t node_idx);
  void serve_next();
  void bind_obs();

  Scheduler& sched_;
  FairLinkConfig config_;
  core::Rng rng_;
  std::vector<FlowQueue> flows_;  // dense, indexed by slot, never shrinks
  std::unordered_map<std::uint64_t, std::uint32_t> flow_index_;  // id -> slot
  std::deque<std::uint32_t> round_robin_;  // flow slots with queued packets
  bool serving_ = false;
  LinkStats stats_;
  ObsHandles obs_;
};

}  // namespace swiftest::netsim
