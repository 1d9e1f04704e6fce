#include "netsim/link.hpp"

#include <utility>

namespace swiftest::netsim {

Link::Link(Scheduler& sched, LinkConfig config, core::Rng rng)
    : LinkBase(sched.transit_pool()), sched_(sched), config_(config), rng_(std::move(rng)) {}

void Link::bind_obs() {
  obs_.bound = true;
  auto& m = sched_.obs()->metrics;
  obs_.enqueued = &m.counter("link.enqueued");
  obs_.delivered = &m.counter("link.delivered");
  obs_.queue_drops = &m.counter("link.queue_drops");
  obs_.random_drops = &m.counter("link.random_drops");
  obs_.queued_bytes = &m.gauge("link.queued_bytes");
}

void Link::send_node(std::uint32_t node_idx) {
  ++stats_.packets_sent;
  TransitNode& node = pool_.at(node_idx);
  const core::Bytes size(node.packet.size_bytes);
  if (queued_ + size > config_.queue_capacity) {
    ++stats_.queue_drops;
    if (sched_.obs() != nullptr) {
      if (!obs_.bound) bind_obs();
      obs_.queue_drops->inc();
      if (auto* tr = sched_.tracer(obs::Category::kLink)) {
        tr->record(sched_.now(), obs::Category::kLink, obs::EventKind::kInstant,
                   "link.drop", node.packet.flow_id,
                   static_cast<double>(queued_.count()));
      }
    }
    pool_.release(node_idx);
    return;
  }
  queued_ += size;
  if (queue_tail_ == kTransitNil) {
    queue_head_ = node_idx;
  } else {
    pool_.at(queue_tail_).next = node_idx;
  }
  queue_tail_ = node_idx;
  if (sched_.obs() != nullptr) {
    if (!obs_.bound) bind_obs();
    obs_.enqueued->inc();
    obs_.queued_bytes->set(static_cast<double>(queued_.count()));
    if (auto* tr = sched_.tracer(obs::Category::kLink)) {
      tr->record(sched_.now(), obs::Category::kLink, obs::EventKind::kCounter,
                 "link.queued_bytes", node.packet.flow_id,
                 static_cast<double>(queued_.count()));
    }
  }
  if (!serving_) serve_next();
}

void Link::serve_next() {
  if (queue_head_ == kTransitNil) {
    serving_ = false;
    return;
  }
  serving_ = true;
  // The rate is read when serialization *begins*, so mid-run rate changes
  // (fading, handover) apply to every packet still waiting in the queue.
  const core::Bytes size(pool_.at(queue_head_).packet.size_bytes);
  const core::SimDuration serialize = config_.rate.transmit_time(size);
  sched_.schedule_in(serialize, [this] { complete_serialize(); });
}

void Link::complete_serialize() {
  const std::uint32_t node_idx = queue_head_;
  TransitNode& node = pool_.at(node_idx);
  queue_head_ = node.next;
  if (queue_head_ == kTransitNil) queue_tail_ = kTransitNil;
  node.next = kTransitNil;
  queued_ -= core::Bytes(node.packet.size_bytes);

  const bool corrupted =
      config_.random_loss > 0.0 && rng_.bernoulli(config_.random_loss);
  if (corrupted) {
    ++stats_.random_drops;
    if (sched_.obs() != nullptr) {
      if (!obs_.bound) bind_obs();
      obs_.random_drops->inc();
    }
    pool_.release(node_idx);
  } else if (config_.propagation_delay > 0) {
    sched_.schedule_in(config_.propagation_delay,
                       [this, node_idx] { deliver(node_idx); });
  }
  serve_next();
  // Zero propagation (a Path's private server egress): deliver inline,
  // after the next packet has started, instead of via a same-instant event.
  if (!corrupted && config_.propagation_delay == 0) deliver(node_idx);
}

void Link::deliver(std::uint32_t node_idx) {
  TransitNode& node = pool_.at(node_idx);
  ++stats_.packets_delivered;
  stats_.bytes_delivered += node.packet.size_bytes;
  if (sched_.obs() != nullptr) {
    if (!obs_.bound) bind_obs();
    obs_.delivered->inc();
    if (auto* tr = sched_.tracer(obs::Category::kLink)) {
      tr->record(sched_.now(), obs::Category::kLink, obs::EventKind::kInstant,
                 "link.deliver", node.packet.flow_id,
                 static_cast<double>(node.packet.size_bytes));
    }
  }
  hand_on(node_idx);
}

void Link::set_rate(core::Bandwidth rate) { config_.rate = rate; }

}  // namespace swiftest::netsim
