#include "netsim/fair_link.hpp"

#include <algorithm>
#include <utility>

namespace swiftest::netsim {

FairLink::FairLink(Scheduler& sched, FairLinkConfig config, core::Rng rng)
    : LinkBase(sched.transit_pool()), sched_(sched), config_(config), rng_(std::move(rng)) {}

void FairLink::bind_obs() {
  obs_.bound = true;
  auto& m = sched_.obs()->metrics;
  obs_.enqueued = &m.counter("fairlink.enqueued");
  obs_.delivered = &m.counter("fairlink.delivered");
  obs_.queue_drops = &m.counter("fairlink.queue_drops");
  obs_.random_drops = &m.counter("fairlink.random_drops");
  obs_.active_flows = &m.gauge("fairlink.active_flows");
}

std::uint32_t FairLink::flow_slot(std::uint64_t flow_id) {
  const auto [it, inserted] =
      flow_index_.try_emplace(flow_id, static_cast<std::uint32_t>(flows_.size()));
  if (inserted) flows_.emplace_back();
  return it->second;
}

void FairLink::send_node(std::uint32_t node_idx) {
  ++stats_.packets_sent;
  TransitNode& node = pool_.at(node_idx);
  const core::Bytes size(node.packet.size_bytes);
  const std::uint64_t flow_id = node.packet.flow_id;
  const std::uint32_t slot = flow_slot(flow_id);
  FlowQueue& flow = flows_[slot];
  if (flow.queued + size > config_.per_flow_queue) {
    ++stats_.queue_drops;
    if (sched_.obs() != nullptr) {
      if (!obs_.bound) bind_obs();
      obs_.queue_drops->inc();
      if (auto* tr = sched_.tracer(obs::Category::kLink)) {
        tr->record(sched_.now(), obs::Category::kLink, obs::EventKind::kInstant,
                   "fairlink.drop", flow_id,
                   static_cast<double>(flow.queued.count()));
      }
    }
    pool_.release(node_idx);
    return;
  }
  if (flow.head == kTransitNil) {
    round_robin_.push_back(slot);
    flow.deficit = 0;
  }
  flow.queued += size;
  if (flow.tail == kTransitNil) {
    flow.head = node_idx;
  } else {
    pool_.at(flow.tail).next = node_idx;
  }
  flow.tail = node_idx;
  if (sched_.obs() != nullptr) {
    if (!obs_.bound) bind_obs();
    obs_.enqueued->inc();
    obs_.active_flows->set(static_cast<double>(round_robin_.size()));
    if (auto* tr = sched_.tracer(obs::Category::kLink)) {
      // Per-flow backlog sample: id keys the flow's own counter track.
      tr->record(sched_.now(), obs::Category::kLink, obs::EventKind::kCounter,
                 "fairlink.flow_backlog", flow_id,
                 static_cast<double>(flow.queued.count()));
    }
  }
  if (!serving_) serve_next();
}

void FairLink::serve_next() {
  // Find the next flow whose deficit covers its head packet; replenish
  // deficits round by round (classic DRR).
  while (!round_robin_.empty()) {
    const std::uint32_t slot = round_robin_.front();
    FlowQueue& flow = flows_[slot];
    if (flow.head == kTransitNil) {
      round_robin_.pop_front();
      continue;
    }
    const auto head_size =
        static_cast<std::int64_t>(pool_.at(flow.head).packet.size_bytes);
    if (flow.deficit < head_size) {
      // Move to the back of the round with a fresh quantum.
      flow.deficit += config_.quantum.count();
      round_robin_.pop_front();
      round_robin_.push_back(slot);
      continue;
    }

    serving_ = true;
    const core::SimDuration serialize =
        config_.rate.transmit_time(core::Bytes(head_size));
    sched_.schedule_in(serialize, [this, slot] { complete_serialize(slot); });
    return;
  }
  serving_ = false;
}

void FairLink::complete_serialize(std::uint32_t slot) {
  FlowQueue& flow = flows_[slot];
  const std::uint32_t node_idx = flow.head;
  TransitNode& node = pool_.at(node_idx);
  flow.head = node.next;
  if (flow.head == kTransitNil) flow.tail = kTransitNil;
  node.next = kTransitNil;
  const auto size = static_cast<std::int64_t>(node.packet.size_bytes);
  flow.queued -= core::Bytes(size);
  flow.deficit -= size;
  if (flow.head == kTransitNil) flow.deficit = 0;

  const bool corrupted =
      config_.random_loss > 0.0 && rng_.bernoulli(config_.random_loss);
  if (corrupted) {
    ++stats_.random_drops;
    if (sched_.obs() != nullptr) {
      if (!obs_.bound) bind_obs();
      obs_.random_drops->inc();
    }
    pool_.release(node_idx);
  } else {
    flow.delivered_bytes += size;
    if (config_.propagation_delay > 0) {
      sched_.schedule_in(config_.propagation_delay,
                         [this, node_idx] { deliver(node_idx); });
    }
  }
  serve_next();
  // Zero propagation (a fleet server's egress): deliver inline, after the
  // next packet has started, instead of via a same-instant event.
  if (!corrupted && config_.propagation_delay == 0) deliver(node_idx);
}

void FairLink::deliver(std::uint32_t node_idx) {
  TransitNode& node = pool_.at(node_idx);
  ++stats_.packets_delivered;
  stats_.bytes_delivered += node.packet.size_bytes;
  if (sched_.obs() != nullptr) {
    if (!obs_.bound) bind_obs();
    obs_.delivered->inc();
    if (auto* tr = sched_.tracer(obs::Category::kLink)) {
      tr->record(sched_.now(), obs::Category::kLink, obs::EventKind::kInstant,
                 "fairlink.deliver", node.packet.flow_id,
                 static_cast<double>(node.packet.size_bytes));
    }
  }
  hand_on(node_idx);
}

void FairLink::set_rate(core::Bandwidth rate) { config_.rate = rate; }

std::int64_t FairLink::flow_bytes_delivered(std::uint64_t flow_id) const {
  const auto it = flow_index_.find(flow_id);
  return it == flow_index_.end() ? 0 : flows_[it->second].delivered_bytes;
}

}  // namespace swiftest::netsim
