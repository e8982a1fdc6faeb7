#include "net/host.hpp"

namespace hrmc::net {

// Cost model (paper §5.2): each packet of length l costs (10 + 0.025·l) µs
// of H-RMC protocol processing and 150 µs of lower-layer (IP + driver)
// work. The protocol cost occupies the CPU (it serializes across packets
// and is what makes heavy feedback expensive at the sender); the
// lower-layer cost is treated as pipelined latency — DMA and wire handoff
// overlap with protocol processing of the next packet, so it delays each
// packet without consuming sender CPU. Treating it as occupancy instead
// would cap a host at ~59 Mbps of 1460-byte packets, below throughputs
// the paper reports on the 100 Mbps network.

void Host::send(kern::SkBuffPtr skb) {
  if (nic_ == nullptr || down_) return;
  skb->saddr = addr_;
  const sim::SimTime cost = Cpu::hrmc_cost(skb->size());
  cpu_.run(cost, [this, skb = std::move(skb)]() mutable {
    sched_->schedule_after(Cpu::lower_layer_cost(),
                           [this, skb = std::move(skb)]() mutable {
                             nic_->transmit(std::move(skb));
                           });
  });
}

void Host::deliver(kern::SkBuffPtr skb) {
  if (down_) return;
  sched_->schedule_after(
      Cpu::lower_layer_cost(), [this, skb = std::move(skb)]() mutable {
        const sim::SimTime cost = Cpu::hrmc_cost(skb->size());
        cpu_.run(cost, [this, skb = std::move(skb)]() mutable {
          auto it = transports_.find(skb->protocol);
          if (it != transports_.end()) it->second->rx(std::move(skb));
        });
      });
}

}  // namespace hrmc::net
