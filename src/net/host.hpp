// Host process: one simulated machine.
//
// Owns the serialized CPU model, demuxes arriving packets to registered
// transport protocols (the paper's Fig 4 stack: H-RMC lives beside TCP
// and UDP above IP), and charges the per-packet processing costs from
// §5.2 on both the send and receive paths. The 150 µs lower-layer cost
// is pure latency and takes no event of its own: on send the CPU
// completion fires that long after the protocol work ends and hands the
// packet to the NIC; on receive the host states it as rx_latency(), the
// NIC holds each packet that much longer, and deliver() — the CPU stage
// — runs at the end of that packet's hold, when the NIC's hold FIFO
// hands it over (nic.hpp). The NIC is deliver()'s only caller, so the
// NIC's rx_packets equal this host's rx_offered plus the packets the NIC
// still holds (Nic::Counters::rx_handed_off).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "kern/mem.hpp"
#include "net/addr.hpp"
#include "net/cpu.hpp"
#include "net/nic.hpp"
#include "net/sink.hpp"
#include "sim/scheduler.hpp"

namespace hrmc::net {

/// A transport protocol instance bound to a host (H-RMC, mini-TCP, ...).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Called with each packet for this protocol, after the host has
  /// charged receive-path CPU costs.
  virtual void rx(kern::SkBuffPtr skb) = 0;
};

/// Lets hosts ask the network layer to (un)subscribe a multicast group,
/// playing the role IGMP plays below the real driver.
class GroupControl {
 public:
  virtual ~GroupControl() = default;
  virtual void join_group(Addr group, class Host* host) = 0;
  virtual void leave_group(Addr group, class Host* host) = 0;
};

class Host final : public PacketSink {
 public:
  Host(sim::Scheduler& sched, std::string name, Addr addr)
      : sched_(&sched), cpu_(sched), name_(std::move(name)), addr_(addr) {}

  void attach_nic(Nic* nic) { nic_ = nic; }
  void set_group_control(GroupControl* gc) { group_control_ = gc; }

  /// Registers `t` to receive packets whose protocol field equals `proto`.
  void register_transport(std::uint8_t proto, Transport* t) {
    transports_[proto] = t;
  }
  void unregister_transport(std::uint8_t proto) { transports_.erase(proto); }

  /// Transmit path: stamps the source address, charges the protocol
  /// CPU cost, and hands the packet to the NIC the lower-layer latency
  /// after that work ends.
  void send(kern::SkBuffPtr skb);

  /// PacketSink: packet arriving from the NIC, which has already held it
  /// for rx_latency(). A down host drops it here; otherwise the
  /// receive-path CPU cost is charged, then the packet is demuxed to the
  /// registered transport.
  void deliver(kern::SkBuffPtr skb) override;

  /// The §5.2 lower-layer (IP + driver) receive latency, applied by the
  /// NIC in front as part of its hold.
  [[nodiscard]] sim::SimTime rx_latency() const override {
    return Cpu::lower_layer_cost();
  }

  /// Per-host packet counts. Each direction closes: every packet offered
  /// is passed on (to a transport on receive, to the NIC on send),
  /// dropped under one named reason, or still in CPU work when the run
  /// stops (rx_in_cpu() / tx_in_cpu(), the analogue of the NIC's tx
  /// ring). rx_conserved() and tx_conserved() state the two laws; they
  /// are linear, so they also hold on a field-wise sum of several hosts'
  /// counters (with their in-CPU counts summed).
  struct Counters {
    std::uint64_t rx_offered = 0;             ///< deliver() calls
    std::uint64_t rx_packets = 0;             ///< handed to a transport
    std::uint64_t rx_down_drops = 0;          ///< host down at deliver()
    std::uint64_t rx_no_transport_drops = 0;  ///< protocol not registered
    std::uint64_t tx_offered = 0;             ///< send() calls
    std::uint64_t tx_packets = 0;             ///< handed to the NIC
    std::uint64_t tx_down_drops = 0;          ///< host down at send()
    std::uint64_t tx_no_nic_drops = 0;        ///< no NIC attached

    bool operator==(const Counters&) const = default;

    [[nodiscard]] bool rx_conserved(std::uint64_t in_cpu) const {
      return rx_offered ==
             rx_packets + rx_down_drops + rx_no_transport_drops + in_cpu;
    }
    [[nodiscard]] bool tx_conserved(std::uint64_t in_cpu) const {
      return tx_offered == tx_packets + tx_down_drops + tx_no_nic_drops +
                               in_cpu;
    }
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Packets whose receive / send CPU work has not completed yet.
  [[nodiscard]] std::uint64_t rx_in_cpu() const { return rx_in_cpu_; }
  [[nodiscard]] std::uint64_t tx_in_cpu() const { return tx_in_cpu_; }

  /// Crash state (fault injection): a down host is deaf and mute —
  /// everything it would send or receive vanishes at the host boundary.
  /// Protocol state is NOT touched here; a crashed protocol endpoint is
  /// reset by its own crash()/restart() hooks.
  void set_down(bool down) { down_ = down; }
  [[nodiscard]] bool is_down() const { return down_; }

  void join_group(Addr group) {
    if (group_control_ != nullptr) group_control_->join_group(group, this);
  }
  void leave_group(Addr group) {
    if (group_control_ != nullptr) group_control_->leave_group(group, this);
  }

  [[nodiscard]] Addr addr() const { return addr_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Cpu& cpu() { return cpu_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return *sched_; }
  [[nodiscard]] Nic* nic() { return nic_; }

  /// Gives this host its own ledger on the domain's memory accountant.
  /// Without one (the default) allocation is infallible, exactly as
  /// before the accountant existed. Protocol code charges its buffer
  /// state to mem_ledger().
  void set_mem_accountant(kern::MemAccountant& mem) {
    ledger_ = std::make_unique<kern::MemLedger>(mem);
  }
  /// This host's ledger, or nullptr when it has none.
  [[nodiscard]] kern::MemLedger* mem_ledger() { return ledger_.get(); }

 private:
  std::unique_ptr<kern::MemLedger> ledger_;
  sim::Scheduler* sched_;
  Cpu cpu_;
  std::string name_;
  Addr addr_;
  bool down_ = false;
  Nic* nic_ = nullptr;
  GroupControl* group_control_ = nullptr;
  std::unordered_map<std::uint8_t, Transport*> transports_;
  Counters counters_;
  std::uint64_t rx_in_cpu_ = 0;
  std::uint64_t tx_in_cpu_ = 0;
};

}  // namespace hrmc::net
