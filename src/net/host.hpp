// Host process: one simulated machine.
//
// Owns the serialized CPU model, demuxes arriving packets to registered
// transport protocols (the paper's Fig 4 stack: H-RMC lives beside TCP
// and UDP above IP), and charges the per-packet processing costs from
// §5.2 on both the send and receive paths.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

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

  /// Transmit path: stamps the source address, charges protocol +
  /// lower-layer CPU cost, then hands the packet to the NIC.
  void send(kern::SkBuffPtr skb);

  /// PacketSink: packet arriving from the NIC. Charges receive-path CPU
  /// cost, then demuxes to the registered transport.
  void deliver(kern::SkBuffPtr skb) override;

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

  /// Cell-wide memory accountant, or nullptr (the default: allocation is
  /// infallible, exactly as before the accountant existed). Protocol
  /// code charges its buffer state against this host's addr() ledger.
  void set_mem_accountant(kern::MemAccountant* mem) { mem_ = mem; }
  [[nodiscard]] kern::MemAccountant* mem_accountant() const { return mem_; }

 private:
  kern::MemAccountant* mem_ = nullptr;
  sim::Scheduler* sched_;
  Cpu cpu_;
  std::string name_;
  Addr addr_;
  bool down_ = false;
  Nic* nic_ = nullptr;
  GroupControl* group_control_ = nullptr;
  std::unordered_map<std::uint8_t, Transport*> transports_;
};

}  // namespace hrmc::net
