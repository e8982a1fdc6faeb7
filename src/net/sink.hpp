// The one interface every forwarding element implements.
#pragma once

#include "kern/skbuff.hpp"
#include "sim/time.hpp"

namespace hrmc::net {

/// Anything a packet can be handed to: routers, NICs, host stacks.
class PacketSink {
 public:
  virtual ~PacketSink() = default;

  /// Takes ownership of the buffer. May drop, queue, or forward it.
  virtual void deliver(kern::SkBuffPtr skb) = 0;

  /// Pure latency each packet spends on its way into this sink before
  /// deliver() should act on it. The element in front folds it into its
  /// own hold, so the latency costs no event of its own; a host states
  /// its §5.2 lower-layer cost here (host.hpp).
  [[nodiscard]] virtual sim::SimTime rx_latency() const { return 0; }
};

}  // namespace hrmc::net
