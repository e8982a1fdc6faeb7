#include "net/router.hpp"

#include <algorithm>

namespace hrmc::net {

Router::Router(sim::Scheduler& sched, std::string name, RouterConfig cfg,
               std::uint64_t loss_seed)
    : sched_(&sched), name_(std::move(name)), cfg_(cfg), loss_rng_(loss_seed) {}

Router::Port* Router::port(PacketSink* egress) {
  if (egress == nullptr) return nullptr;
  Port& p = ports_[egress];
  p.egress = egress;
  return &p;
}

void Router::add_route(Addr dst, PacketSink* next) {
  routes_[dst] = port(next);
}

void Router::join_group(Addr group, PacketSink* next) {
  Port* p = port(next);
  auto& fanout = groups_[group];
  if (std::find(fanout.begin(), fanout.end(), p) == fanout.end()) {
    fanout.push_back(p);
  }
}

void Router::leave_group(Addr group, PacketSink* next) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return;
  auto& fanout = it->second;
  std::erase_if(fanout, [next](const Port* p) { return p->egress == next; });
  if (fanout.empty()) groups_.erase(it);
}

bool Router::group_active(Addr group) const {
  auto it = groups_.find(group);
  return it != groups_.end() && !it->second.empty();
}

void Router::deliver(kern::SkBuffPtr skb) {
  ++counters_.offered;
  if (down_) {
    ++counters_.down_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kDown));
    return;
  }
  if (skb->ttl == 0) {
    ++counters_.ttl_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kTtl));
    return;
  }
  skb->ttl -= 1;
  // One loss draw per packet at ingress, before any duplication: a loss
  // here is correlated across every downstream receiver.
  if (loss_rng_.chance(cfg_.loss_rate)) {
    ++counters_.loss_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kLoss));
    return;
  }
  if (burst_loss_ && burst_loss_->drop()) {
    ++counters_.burst_loss_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kBurstLoss));
    return;
  }
  // Adversarial disturbances (chaos engine): decided at ingress, like
  // the loss draws, so every downstream receiver sees the same
  // corruption/duplicate/hold.
  if (disturb_ && disturb_->config().any()) {
    if (disturb_->drop_control(*skb, classify_control_)) {
      ++counters_.control_loss_drops;
      trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                  static_cast<std::uint32_t>(trace::DropReason::kControlLoss));
      return;
    }
    if (disturb_->corrupt(*skb)) {
      ++counters_.corrupted;
      trace_.emit(trace::EventKind::kCorrupt, 0, 0, skb->wire_size());
    }
    if (disturb_->duplicate()) {
      ++counters_.duplicated;
      route(skb->clone());
    }
    const sim::SimTime hold = disturb_->extra_delay();
    if (hold > 0) {
      ++counters_.held;
      sched_->schedule_after(hold, [this, skb = std::move(skb)]() mutable {
        route(std::move(skb));
      });
      return;
    }
  }
  route(std::move(skb));
}

void Router::start_reconvergence(sim::SimTime window) {
  const sim::SimTime until = sched_->now() + window;
  if (until > reconverging_until_) reconverging_until_ = until;
}

bool Router::reconverging() const {
  return sched_->now() < reconverging_until_;
}

void Router::route(kern::SkBuffPtr skb) {
  // All forwarding paths funnel through here (including disturbed
  // packets re-injected after a reorder hold), so the reconvergence
  // black-hole covers every packet the router would have moved.
  if (reconverging()) {
    ++counters_.reconverge_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kReconverging));
    return;
  }
  if (is_multicast(skb->daddr)) {
    auto it = groups_.find(skb->daddr);
    if (it == groups_.end() || it->second.empty()) {
      ++counters_.no_group_drops;
      trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                  static_cast<std::uint32_t>(trace::DropReason::kNoRoute));
      return;
    }
    ++counters_.mcast_forwarded;
    // Fan-out duplication is O(1) per egress: clone() shares the data
    // block (skb_clone semantics) and receivers only pull/read, so no
    // copy ever materializes on the multicast data path.
    const auto& fanout = it->second;
    for (std::size_t i = 0; i + 1 < fanout.size(); ++i) {
      enqueue(*fanout[i], skb->clone());
    }
    enqueue(*fanout.back(), std::move(skb));
    return;
  }
  auto it = routes_.find(skb->daddr);
  Port* next = it != routes_.end() ? it->second : default_route_;
  if (next == nullptr) {
    ++counters_.no_route_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kNoRoute));
    return;
  }
  ++counters_.forwarded;
  enqueue(*next, std::move(skb));
}

void Router::enqueue(Port& port, kern::SkBuffPtr skb) {
  // Per-egress-port output queues: a saturated forward port must not
  // starve (or drop) traffic leaving through a different port — links
  // are full duplex and switch ports have independent queues.
  if (port.queue.size() >= cfg_.queue_limit) {
    ++counters_.queue_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kQueueFull));
    return;
  }
  trace_.emit(trace::EventKind::kEnqueue, 0, 0, skb->wire_size(),
              static_cast<std::uint32_t>(port.queue.size()));
  port.queue.push_back(std::move(skb));
  if (!port.busy) service(port);
}

void Router::service(Port& port) {
  if (port.queue.empty()) {
    port.busy = false;
    return;
  }
  port.busy = true;
  kern::SkBuffPtr skb = port.queue.pop_front();
  const sim::SimTime service_time = sim::transmission_time(
      static_cast<std::int64_t>(skb->wire_size()), cfg_.speed_bps);
  if (port.remote_engine != nullptr) {
    // Cross-domain egress: the arrival is staged *now*, at service
    // start, to land at now + service_time — which is what bounds the
    // engine's lookahead from below (no packet serializes faster than
    // the minimum-size one). unshare() first: skb data blocks are
    // refcounted without atomics under the one-thread-per-domain
    // invariant, so a buffer must be exclusively owned before it
    // crosses; local multicast siblings keep the original block.
    skb->unshare();
    const std::size_t bytes = skb->wire_size();
    port.remote_engine->post(
        port.remote_src, port.remote_dst, sched_->now() + service_time,
        bytes, [egress = port.egress, skb = std::move(skb)]() mutable {
          egress->deliver(std::move(skb));
        });
    // The port itself still serializes locally: next packet starts when
    // this one's service interval ends, exactly as in the local branch.
    sched_->schedule_after(service_time, [this, &port] { service(port); });
    return;
  }
  sched_->schedule_after(service_time,
                         [this, &port, skb = std::move(skb)]() mutable {
                           port.egress->deliver(std::move(skb));
                           service(port);
                         });
}

}  // namespace hrmc::net
