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
// the paper reports on the 100 Mbps network. Being pure latency, it rides
// on an event the packet takes anyway: the CPU completion on send, the
// NIC's hold on receive (rx_latency()).

void Host::send(kern::SkBuffPtr skb) {
  ++counters_.tx_offered;
  if (nic_ == nullptr) {
    ++counters_.tx_no_nic_drops;
    return;
  }
  if (down_) {
    ++counters_.tx_down_drops;
    return;
  }
  skb->saddr = addr_;
  const sim::SimTime cost = Cpu::hrmc_cost(skb->size());
  ++tx_in_cpu_;
  cpu_.run(
      cost,
      [this, skb = std::move(skb)]() mutable {
        --tx_in_cpu_;
        ++counters_.tx_packets;
        nic_->transmit(std::move(skb));
      },
      Cpu::lower_layer_cost());
}

void Host::deliver(kern::SkBuffPtr skb) {
  ++counters_.rx_offered;
  if (down_) {
    ++counters_.rx_down_drops;
    return;
  }
  const sim::SimTime cost = Cpu::hrmc_cost(skb->size());
  ++rx_in_cpu_;
  cpu_.run(cost, [this, skb = std::move(skb)]() mutable {
    --rx_in_cpu_;
    auto it = transports_.find(skb->protocol);
    if (it == transports_.end()) {
      ++counters_.rx_no_transport_drops;
      return;
    }
    ++counters_.rx_packets;
    it->second->rx(std::move(skb));
  });
}

}  // namespace hrmc::net
