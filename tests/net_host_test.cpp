#include "net/host.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/cpu.hpp"
#include "net/nic.hpp"

namespace hrmc::net {
namespace {

TEST(Cpu, WorkSerializesFifo) {
  sim::Scheduler sched;
  Cpu cpu(sched);
  std::vector<int> order;
  std::vector<sim::SimTime> at;
  for (int i = 0; i < 3; ++i) {
    cpu.run(sim::microseconds(100), [&, i] {
      order.push_back(i);
      at.push_back(sched.now());
    });
  }
  sched.run_until();
  ASSERT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(at[0], sim::microseconds(100));
  EXPECT_EQ(at[1], sim::microseconds(200));
  EXPECT_EQ(at[2], sim::microseconds(300));
  EXPECT_EQ(cpu.total_busy(), sim::microseconds(300));
}

TEST(Cpu, IdleGapsDoNotAccumulate) {
  sim::Scheduler sched;
  Cpu cpu(sched);
  sim::SimTime done = 0;
  cpu.run(sim::microseconds(10), [] {});
  sched.run_until();
  // 1 ms of idle passes; new work starts "now", not at the last finish.
  sched.schedule_at(sim::milliseconds(1), [&] {
    cpu.run(sim::microseconds(10), [&] { done = sched.now(); });
  });
  sched.run_until();
  EXPECT_EQ(done, sim::milliseconds(1) + sim::microseconds(10));
}

TEST(Cpu, PaperCostModel) {
  // (10 + 0.025·l) µs protocol cost; 150 µs lower layer (§5.2).
  EXPECT_EQ(Cpu::hrmc_cost(0), sim::microseconds(10));
  EXPECT_EQ(Cpu::hrmc_cost(1000), sim::microseconds(35));
  EXPECT_EQ(Cpu::hrmc_cost(1460), sim::microseconds(10) +
                                       sim::from_seconds(0.025 * 1460 / 1e6));
  EXPECT_EQ(Cpu::lower_layer_cost(), sim::microseconds(150));
}

struct CountingTransport final : Transport {
  void rx(kern::SkBuffPtr skb) override {
    ++count;
    last_size = skb->size();
  }
  int count = 0;
  std::size_t last_size = 0;
};

TEST(Host, DemuxesByProtocol) {
  sim::Scheduler sched;
  Host host(sched, "h", make_addr(10, 0, 0, 1));
  CountingTransport a, b;
  host.register_transport(17, &a);
  host.register_transport(200, &b);

  auto pkt = kern::SkBuff::alloc(50);
  pkt->put(50);
  pkt->protocol = 200;
  host.deliver(std::move(pkt));
  auto pkt2 = kern::SkBuff::alloc(20);
  pkt2->put(20);
  pkt2->protocol = 99;  // unregistered: silently dropped
  host.deliver(std::move(pkt2));
  sched.run_until();
  EXPECT_EQ(a.count, 0);
  EXPECT_EQ(b.count, 1);
  EXPECT_EQ(b.last_size, 50u);
}

TEST(Host, UnregisterStopsDelivery) {
  sim::Scheduler sched;
  Host host(sched, "h", make_addr(10, 0, 0, 1));
  CountingTransport t;
  host.register_transport(200, &t);
  host.unregister_transport(200);
  auto pkt = kern::SkBuff::alloc(10);
  pkt->put(10);
  pkt->protocol = 200;
  host.deliver(std::move(pkt));
  sched.run_until();
  EXPECT_EQ(t.count, 0);
}

TEST(Host, SendStampsSourceAddress) {
  sim::Scheduler sched;
  Host host(sched, "h", make_addr(10, 0, 0, 7));
  Nic nic(sched, "n", NicConfig{}, 1);
  host.attach_nic(&nic);

  struct Capture final : PacketSink {
    void deliver(kern::SkBuffPtr skb) override {
      packets.push_back(std::move(skb));
    }
    std::vector<kern::SkBuffPtr> packets;
  } uplink;
  nic.attach_uplink(&uplink);

  for (int i = 0; i < 2; ++i) {
    auto pkt = kern::SkBuff::alloc(10);
    pkt->put(10);
    pkt->daddr = make_addr(10, 0, 0, 9);
    host.send(std::move(pkt));
  }
  sched.run_until();
  ASSERT_EQ(uplink.packets.size(), 2u);
  EXPECT_EQ(uplink.packets[0]->saddr, make_addr(10, 0, 0, 7));
}

TEST(Host, SendPathChargesCpuAndLatency) {
  sim::Scheduler sched;
  Host host(sched, "h", make_addr(10, 0, 0, 7));
  Nic nic(sched, "n", NicConfig{}, 1);
  host.attach_nic(&nic);
  auto pkt = kern::SkBuff::alloc(1000);
  pkt->put(1000);
  host.send(std::move(pkt));
  sched.run_until();
  // hrmc_cost(1000) = 35 µs occupancy + 150 µs pipelined latency before
  // the NIC sees it; NIC then serializes.
  EXPECT_GE(host.cpu().total_busy(), sim::microseconds(35));
  EXPECT_EQ(nic.counters().tx_packets, 1u);
}

}  // namespace
}  // namespace hrmc::net
