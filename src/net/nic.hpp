// Network interface process.
//
// Mirrors the paper's simulation model (§5.2): the NIC receives packets
// one at a time, holds each for its assigned delay, applies the
// *uncorrelated* share of the path loss rate, and passes it to the host.
// Correlated loss and adversarial disturbance belong to the group router
// (net/router.hpp); the receive path here is link state, Bernoulli loss,
// the optional wireless fade, memory admission, then one hold of
// rx_delay plus the attached sink's rx_latency() — for a host, its 150 µs
// lower-layer cost — after which the sink takes the packet. Every hold on
// a card is equally long, so held packets leave in arrival order: the
// card keeps them in one FIFO, each with the scheduler key taken when it
// arrived, and only the head has a scheduler event. That event hands the
// head to the sink and inserts the next head's under its stored key, so
// each packet leaves exactly where an event of its own would have fired.
// On the transmit side it owns a finite tx ring drained at link rate —
// the mechanism behind the NAKs the paper observed with >1024K buffers on
// the 100 Mbps network (Fig 13): a sender bursting more than the ring
// absorbs within a jiffy loses packets at its own card.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "kern/jiffies.hpp"
#include "net/loss.hpp"
#include "net/ring.hpp"
#include "net/sink.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace hrmc::kern {
class MemAccountant;
}  // namespace hrmc::kern

namespace hrmc::net {

struct NicConfig {
  double link_bps = 10e6;        ///< access link rate (bits/second)
  sim::SimTime rx_delay = 0;     ///< one-way delay applied to arriving packets
  double rx_loss_rate = 0.0;     ///< uncorrelated loss probability on receive
  /// Transmit queue capacity in packets: device queue (Linux 2.1 default
  /// tx_queue_len ~100) plus the card's descriptor ring.
  std::size_t tx_ring = 128;
  /// Card FIFO overrun model (the authors' hypothesis for Fig 13: "the
  /// network card is not being able to accept data at these rates"):
  /// the card cleanly absorbs transient bursts, but when the enqueue
  /// rate stays above `overrun_burst` packets per jiffy for consecutive
  /// jiffies — sustained pressure only a window far beyond the
  /// bandwidth-delay product can generate — each excess enqueue is lost
  /// with probability `overrun_prob`. A 10 Mbps link drains only ~8
  /// packets per jiffy, so consecutive over-allowance jiffies cannot
  /// occur there; at 100 Mbps they occur exactly when the send window is
  /// in the multi-megabyte regime the paper flags.
  std::size_t overrun_burst = 78;  ///< per-jiffy clean enqueue allowance
  double overrun_prob = 0.05;
};

class Nic final : public PacketSink {
 public:
  Nic(sim::Scheduler& sched, std::string name, NicConfig cfg,
      std::uint64_t loss_seed);

  /// Downstream (toward the network). Set once during topology wiring.
  void attach_uplink(PacketSink* uplink) { uplink_ = uplink; }
  /// Upstream (toward the host protocol stack). Set once during
  /// topology wiring: the sink's rx_latency() is read here and added to
  /// every receive hold.
  void attach_host(PacketSink* host) {
    host_ = host;
    rx_hold_ = cfg_.rx_delay + (host != nullptr ? host->rx_latency() : 0);
  }

  /// Host-side entry point: queue a packet for transmission. Drops (and
  /// counts) the packet when the tx ring is full — exactly what a real
  /// card does when the driver outruns it.
  void transmit(kern::SkBuffPtr skb);

  /// Network-side entry point (PacketSink): a packet arriving for the
  /// host. Applies loss, then holds it for rx_delay plus the host's
  /// rx_latency() and hands it to the host.
  void deliver(kern::SkBuffPtr skb) override;

  /// Packets accepted on receive and not yet handed to the host: counted
  /// in rx_packets, not yet in the host's rx_offered.
  [[nodiscard]] std::size_t rx_held() const { return hold_.size(); }

  /// Link state (fault injection): a down link drops every packet in
  /// both directions at the card boundary, counted as
  /// tx_/rx_link_down_drops. Packets already serializing are not recalled.
  void set_link_up(bool up) { link_up_ = up; }
  [[nodiscard]] bool link_up() const { return link_up_; }

  /// Attaches the 802.11-style wireless loss model to the receive path
  /// (correlated fade lengths + SNR-like modulation; see loss.hpp).
  /// Coexists with the Bernoulli rate, on its own RNG stream.
  void set_wireless_loss(const WirelessLossConfig& wl, std::uint64_t seed) {
    wireless_loss_.emplace(wl, seed);
  }
  void clear_wireless_loss() { wireless_loss_.reset(); }
  [[nodiscard]] const WirelessLoss* wireless_loss() const {
    return wireless_loss_ ? &*wireless_loss_ : nullptr;
  }

  /// Per-card packet counts. Each direction closes: every packet
  /// offered is passed on, dropped under one named reason, or (tx only)
  /// still in the ring — rx_conserved() and tx_conserved() state the two
  /// laws. They are linear, so they also hold on a field-wise sum of
  /// several cards' counters (with their rings' occupancies summed).
  struct Counters {
    std::uint64_t tx_offered = 0;          ///< transmit() calls
    std::uint64_t tx_packets = 0;          ///< started serializing
    std::uint64_t tx_bytes = 0;            ///< wire bytes of tx_packets
    std::uint64_t tx_link_down_drops = 0;
    std::uint64_t tx_ring_drops = 0;       ///< ring full or card overrun
    std::uint64_t tx_overrun_drops = 0;    ///< the overrun share of the above
    std::uint64_t rx_offered = 0;          ///< deliver() calls
    std::uint64_t rx_packets = 0;          ///< handed on toward the host
    std::uint64_t rx_bytes = 0;            ///< wire bytes of rx_packets
    std::uint64_t rx_link_down_drops = 0;
    std::uint64_t rx_loss_drops = 0;       ///< Bernoulli rx_loss_rate
    std::uint64_t wireless_drops = 0;      ///< 802.11-style fade model
    std::uint64_t mem_drops = 0;           ///< refused by the accountant

    bool operator==(const Counters&) const = default;

    [[nodiscard]] bool rx_conserved() const {
      return rx_offered == rx_packets + rx_link_down_drops + rx_loss_drops +
                               wireless_drops + mem_drops;
    }
    /// The hand-off to the host: every packet passed on is either offered
    /// to the host (`host_rx_offered`, its Host::Counters::rx_offered) or
    /// still in the receive hold (`held`, rx_held()).
    [[nodiscard]] bool rx_handed_off(std::uint64_t host_rx_offered,
                                     std::uint64_t held) const {
      return rx_packets == host_rx_offered + held;
    }
    /// `in_ring`: packets still waiting in the tx ring (tx_queue_len()).
    [[nodiscard]] bool tx_conserved(std::uint64_t in_ring) const {
      return tx_offered ==
             tx_packets + tx_link_down_drops + tx_ring_drops + in_ring;
    }
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const NicConfig& config() const { return cfg_; }

  /// Packets currently waiting in the tx ring.
  [[nodiscard]] std::size_t tx_queue_len() const { return tx_queue_.size(); }

  /// Free transmit-queue slots — the protocol's transmitter consults
  /// this before bursting, the way the kernel driver checks the device
  /// queue (and requeues instead of flooding).
  [[nodiscard]] std::size_t tx_free() const {
    return cfg_.tx_ring > tx_queue_.size() ? cfg_.tx_ring - tx_queue_.size()
                                           : 0;
  }

  /// Attaches a trace sink reporting drops and tx-ring exhaustion.
  void set_trace(trace::TraceSink sink) { trace_ = sink; }

  /// Memory-pressure admission on the receive path: when an accountant
  /// is installed, every arriving packet models the driver's alloc_skb
  /// against `host_key`'s ledger and is dropped (DropReason::kNoMem) on
  /// refusal — a loss the protocol's NAK path already recovers from.
  void set_mem_admission(kern::MemAccountant* mem, std::uint32_t host_key) {
    mem_ = mem;
    mem_host_ = host_key;
  }

  /// Folded end-state of every RNG this NIC owns (Bernoulli loss and
  /// wireless fade) — part of RunResult::rng_digest.
  [[nodiscard]] std::uint64_t rng_digest() const {
    std::uint64_t acc = loss_rng_.digest();
    if (wireless_loss_) {
      acc = sim::digest_mix(acc, wireless_loss_->rng_digest());
    }
    return acc;
  }

 private:
  /// A packet in the receive hold and the key its hand-off fires under.
  struct Held {
    sim::EventKey key;
    kern::SkBuffPtr skb;
  };

  void drain_tx();
  void hand_off_head();

  sim::Scheduler* sched_;
  std::string name_;
  NicConfig cfg_;
  sim::Rng loss_rng_;
  PacketSink* uplink_ = nullptr;
  PacketSink* host_ = nullptr;
  sim::SimTime rx_hold_ = cfg_.rx_delay;  ///< rx_delay + host rx_latency()

  // Receive hold: accepted packets in arrival order, hence in key order.
  Ring<Held> hold_;

  Ring<kern::SkBuffPtr> tx_queue_;
  bool tx_busy_ = false;
  bool link_up_ = true;
  std::optional<WirelessLoss> wireless_loss_;
  kern::MemAccountant* mem_ = nullptr;
  std::uint32_t mem_host_ = 0;
  std::int64_t burst_jiffy_ = -1;
  std::size_t burst_count_ = 0;
  std::size_t burst_prev_ = 0;
  Counters counters_;
  trace::TraceSink trace_;
};

}  // namespace hrmc::net
