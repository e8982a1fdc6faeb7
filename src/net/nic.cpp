#include "net/nic.hpp"

#include "kern/mem.hpp"

namespace hrmc::net {

Nic::Nic(sim::Scheduler& sched, std::string name, NicConfig cfg,
         std::uint64_t loss_seed)
    : sched_(&sched), name_(std::move(name)), cfg_(cfg), loss_rng_(loss_seed) {}

void Nic::transmit(kern::SkBuffPtr skb) {
  ++counters_.tx_offered;
  if (!link_up_) {
    ++counters_.tx_link_down_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kLinkDown));
    return;
  }
  if (tx_queue_.size() >= cfg_.tx_ring) {
    ++counters_.tx_ring_drops;
    trace_.emit(trace::EventKind::kDeviceFull, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(tx_queue_.size()));
    return;
  }
  // Card overrun model: sustained enqueue pressure above the per-jiffy
  // allowance — this jiffy AND the previous one — puts each excess
  // packet at risk (Fig 13's hypothesized mechanism).
  const kern::Jiffies j = kern::to_jiffies(sched_->now());
  if (j != burst_jiffy_) {
    burst_prev_ = (j == burst_jiffy_ + 1) ? burst_count_ : 0;
    burst_jiffy_ = j;
    burst_count_ = 0;
  }
  if (++burst_count_ > cfg_.overrun_burst &&
      burst_prev_ > cfg_.overrun_burst &&
      loss_rng_.chance(cfg_.overrun_prob)) {
    ++counters_.tx_overrun_drops;
    ++counters_.tx_ring_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kOverrun));
    return;
  }
  tx_queue_.push_back(std::move(skb));
  if (!tx_busy_) drain_tx();
}

void Nic::drain_tx() {
  if (tx_queue_.empty()) {
    tx_busy_ = false;
    return;
  }
  tx_busy_ = true;
  kern::SkBuffPtr skb = tx_queue_.pop_front();
  const sim::SimTime serialize =
      sim::transmission_time(static_cast<std::int64_t>(skb->wire_size()),
                             cfg_.link_bps);
  ++counters_.tx_packets;
  counters_.tx_bytes += skb->wire_size();
  // The packet leaves the wire after serialization; the ring keeps
  // draining back-to-back.
  sched_->schedule_after(
      serialize, [this, skb = std::move(skb)]() mutable {
        if (uplink_ != nullptr) uplink_->deliver(std::move(skb));
        drain_tx();
      });
}

void Nic::deliver(kern::SkBuffPtr skb) {
  ++counters_.rx_offered;
  if (!link_up_) {
    ++counters_.rx_link_down_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kLinkDown));
    return;
  }
  if (loss_rng_.chance(cfg_.rx_loss_rate)) {
    ++counters_.rx_loss_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kLoss));
    return;
  }
  if (wireless_loss_ && wireless_loss_->drop(sched_->now())) {
    ++counters_.wireless_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kWireless));
    return;
  }
  // The frame survived the channel; now the driver must alloc_skb for
  // it. Under memory pressure that can fail — the packet is lost at the
  // card, indistinguishable from wire loss to the protocol above.
  // Control-sized frames allocate from the GFP_ATOMIC reserve and
  // always succeed (see kern::kMemRxReserveBytes): dropping the
  // feedback that frees memory would turn pressure into deadlock.
  if (mem_ != nullptr && skb->wire_size() > kern::kMemRxReserveBytes &&
      !mem_->admit(skb->wire_size())) {
    ++counters_.mem_drops;
    trace_.emit(trace::EventKind::kDrop, 0, 0, skb->wire_size(),
                static_cast<std::uint32_t>(trace::DropReason::kNoMem));
    return;
  }
  ++counters_.rx_packets;
  counters_.rx_bytes += skb->wire_size();
  // Hold for the assigned path delay (the characteristic-group delay in
  // the paper's simulation) plus the host's lower-layer latency, then
  // hand to the host stack: one event for both pure delays. The key is
  // taken now, so the hand-off fires where an event scheduled now would;
  // only the FIFO's head is in the scheduler.
  const sim::EventKey key = sched_->take_key(sched_->now() + rx_hold_);
  if (hold_.empty()) sched_->schedule_keyed(key, [this] { hand_off_head(); });
  hold_.push_back({key, std::move(skb)});
}

void Nic::hand_off_head() {
  kern::SkBuffPtr skb = hold_.pop_front().skb;
  if (!hold_.empty()) {
    sched_->schedule_keyed(hold_.front().key, [this] { hand_off_head(); });
  }
  if (host_ != nullptr) host_->deliver(std::move(skb));
}

}  // namespace hrmc::net
