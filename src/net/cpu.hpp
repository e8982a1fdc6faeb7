// Serialized host CPU model.
//
// The paper charges measured per-packet processing costs on its simulated
// 300 MHz hosts: (10 + 0.025·l) µs of H-RMC protocol work per packet of
// length l, plus 150 µs of lower-layer (IP + driver) work (§5.2). A host
// CPU executes one thing at a time, so costs serialize — this is what
// makes feedback processing at the sender a real bottleneck at 100
// receivers (Fig 15c) rather than free. The lower-layer cost occupies no
// CPU (DESIGN.md §6 item 1): on send it is run()'s `latency`, on receive
// the NIC's hold (host.hpp).
#pragma once

#include <cstdint>
#include <utility>

#include "sim/scheduler.hpp"

namespace hrmc::net {

class Cpu {
 public:
  explicit Cpu(sim::Scheduler& sched) : sched_(&sched) {}

  /// Queues `cost` of CPU work, then runs `done` `latency` after it
  /// completes; the latency overlaps later work. Work requests are
  /// serviced FIFO. `done` goes straight into the scheduler's event
  /// slot, so a small capture costs no allocation.
  template <typename F>
  void run(sim::SimTime cost, F&& done, sim::SimTime latency = 0) {
    const sim::SimTime start = std::max(sched_->now(), busy_until_);
    busy_until_ = start + cost;
    total_busy_ += cost;
    sched_->schedule_at(busy_until_ + latency, std::forward<F>(done));
  }

  /// Cumulative busy time (for utilization reporting).
  [[nodiscard]] sim::SimTime total_busy() const { return total_busy_; }

  /// Per-packet H-RMC protocol processing cost from §5.2 of the paper.
  static sim::SimTime hrmc_cost(std::size_t payload_len) {
    return sim::microseconds(10) +
           static_cast<sim::SimTime>(0.025 * static_cast<double>(payload_len) *
                                     static_cast<double>(sim::kMicrosecond));
  }

  /// Lower-layer (IP + device driver) cost from §5.2 of the paper.
  static sim::SimTime lower_layer_cost() { return sim::microseconds(150); }

 private:
  sim::Scheduler* sched_;
  sim::SimTime busy_until_ = 0;
  sim::SimTime total_busy_ = 0;
};

}  // namespace hrmc::net
