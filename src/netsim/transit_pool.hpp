// Pooled in-flight packet nodes.
//
// A packet in flight is one TransitNode in a free-listed slab addressed by
// 32-bit index, so the events a hop schedules capture only {this, index}.
// A downstream packet keeps the node Path::send_downstream allocated for
// its whole trip (see path.hpp), and the packet is never copied between
// hops. A node has exactly one owner at a time — the link queueing it, the
// event carrying it, or its Path between the two — and whoever drops it
// releases it, so drops cannot leak and no refcount is needed.
//
// `next` doubles as the free-list link and an intrusive queue link (links
// chain queued packets through it); a node is never on both.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "core/small_fn.hpp"
#include "netsim/packet.hpp"

namespace swiftest::netsim {

class Path;

/// Delivery callback. 48 inline bytes: every hot-path client sink fits
/// without a heap allocation; oversized captures fall back to the heap and
/// are counted (see core::small_fn_heap_allocations).
using DeliveryFn = core::SmallFn<void(const Packet&), 48>;

inline constexpr std::uint32_t kTransitNil = 0xffffffffu;

struct TransitNode {
  Packet packet;
  DeliveryFn sink;
  // Set while the node crosses its Path's egress link, which hands it back
  // to the Path; null on a last leg, which ends in `sink`.
  Path* path = nullptr;
  std::uint32_t next = kTransitNil;
};

class TransitPool {
 public:
  TransitPool() = default;
  TransitPool(const TransitPool&) = delete;
  TransitPool& operator=(const TransitPool&) = delete;

  /// Allocates a node with vacant packet/sink slots and no Path.
  std::uint32_t alloc() {
    std::uint32_t idx;
    if (free_head_ != kTransitNil) {
      idx = free_head_;
      free_head_ = nodes_[idx].next;
    } else {
      idx = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    nodes_[idx].next = kTransitNil;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return idx;
  }

  [[nodiscard]] TransitNode& at(std::uint32_t idx) noexcept { return nodes_[idx]; }

  void release(std::uint32_t idx) noexcept {
    TransitNode& n = nodes_[idx];
    // Drop payload/sink refcounts now; a node parked on the free list must
    // not pin arena payloads or captured state until its slot is reused.
    n.packet = Packet{};
    n.sink.reset();
    n.path = nullptr;
    n.next = free_head_;
    free_head_ = idx;
    --live_;
  }

  /// Ends a node's trip: releases it, then hands its packet to its sink.
  /// Both are detached first — the sink may re-enter and reuse the slot.
  void deliver(std::uint32_t idx) {
    TransitNode& n = nodes_[idx];
    DeliveryFn sink = std::move(n.sink);
    Packet pkt = std::move(n.packet);
    release(idx);
    sink(pkt);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  /// High-water mark of simultaneously live nodes — the pool occupancy the
  /// resource monitor reports (capacity never shrinks, so peak ≈ capacity
  /// once warm; the distinction matters for budget sizing).
  [[nodiscard]] std::size_t peak_live() const noexcept { return peak_live_; }

 private:
  // deque: stable node addresses while the slab grows, so a TransitNode&
  // held across an alloc() stays valid.
  std::deque<TransitNode> nodes_;
  std::uint32_t free_head_ = kTransitNil;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace swiftest::netsim
