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

/// Records each packet handed on, with the time it arrived.
struct TimedCapture final : PacketSink {
  explicit TimedCapture(sim::Scheduler& s) : sched(&s) {}
  void deliver(kern::SkBuffPtr skb) override {
    packets.push_back(std::move(skb));
    times.push_back(sched->now());
  }
  sim::Scheduler* sched;
  std::vector<kern::SkBuffPtr> packets;
  std::vector<sim::SimTime> times;
};

struct TimedTransport final : Transport {
  explicit TimedTransport(sim::Scheduler& s) : sched(&s) {}
  void rx(kern::SkBuffPtr) override { times.push_back(sched->now()); }
  sim::Scheduler* sched;
  std::vector<sim::SimTime> times;
};

kern::SkBuffPtr make_packet(std::size_t len, std::uint8_t protocol = 200) {
  auto pkt = kern::SkBuff::alloc(len);
  pkt->put(len);
  pkt->protocol = protocol;
  return pkt;
}

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
  pkt2->protocol = 99;  // unregistered: dropped and counted
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

  TimedCapture uplink(sched);
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
  TimedCapture uplink(sched);
  nic.attach_uplink(&uplink);
  host.send(make_packet(1000));
  sched.run_until();
  // hrmc_cost(1000) = 35 µs of CPU, then 150 µs of pipelined latency
  // before the NIC sees the packet, then serialization at 10 Mbit/s.
  ASSERT_EQ(uplink.times.size(), 1u);
  EXPECT_EQ(uplink.times[0],
            Cpu::hrmc_cost(1000) + Cpu::lower_layer_cost() +
                sim::transmission_time(
                    static_cast<std::int64_t>(uplink.packets[0]->wire_size()),
                    NicConfig{}.link_bps));
  EXPECT_EQ(host.cpu().total_busy(), Cpu::hrmc_cost(1000));
  EXPECT_EQ(nic.counters().tx_packets, 1u);
}

/// A real NIC in front of a host, with rx_delay 2 ms.
struct RxRig {
  sim::Scheduler sched;
  Host host{sched, "h", make_addr(10, 0, 0, 7)};
  Nic nic{sched, "n", NicConfig{.rx_delay = sim::milliseconds(2)}, 1};
  TimedTransport transport{sched};
  RxRig() {
    nic.attach_host(&host);
    host.register_transport(200, &transport);
  }
  /// End of rx_delay, and the fold point 150 µs later where the host
  /// takes the packet.
  static constexpr sim::SimTime kRxDelayEnds = sim::milliseconds(2);
  static constexpr sim::SimTime kFoldPoint =
      sim::milliseconds(2) + sim::microseconds(150);
};

TEST(Host, ReceivePathHoldsOnceThenChargesCpu) {
  RxRig rig;
  rig.nic.deliver(make_packet(1000));
  rig.sched.run_until();
  // rx_delay + the host's 150 µs in one NIC hold, then hrmc_cost(1000)
  // of CPU before the transport sees it.
  ASSERT_EQ(rig.transport.times.size(), 1u);
  EXPECT_EQ(rig.transport.times[0],
            sim::milliseconds(2) + Cpu::lower_layer_cost() +
                Cpu::hrmc_cost(1000));
  EXPECT_EQ(rig.host.rx_latency(), Cpu::lower_layer_cost());
  EXPECT_EQ(rig.host.counters().rx_packets, 1u);
}

TEST(Host, DownAtTheFoldPointDropsThePacket) {
  // Up when rx_delay ends, down by the fold point: the host-down check
  // runs at the fold point, so the packet is lost.
  RxRig rig;
  rig.nic.deliver(make_packet(1000));
  rig.sched.schedule_at(RxRig::kRxDelayEnds + sim::microseconds(1),
                        [&] { rig.host.set_down(true); });
  rig.sched.run_until();
  EXPECT_TRUE(rig.transport.times.empty());
  EXPECT_EQ(rig.host.counters().rx_down_drops, 1u);
}

TEST(Host, UpAgainByTheFoldPointDeliversThePacket) {
  // Down when rx_delay ends, up again by the fold point 150 µs later:
  // the packet is delivered.
  RxRig rig;
  rig.host.set_down(true);
  rig.nic.deliver(make_packet(1000));
  rig.sched.schedule_at(RxRig::kFoldPoint - sim::microseconds(1),
                        [&] { rig.host.set_down(false); });
  rig.sched.run_until();
  ASSERT_EQ(rig.transport.times.size(), 1u);
  EXPECT_EQ(rig.transport.times[0], RxRig::kFoldPoint + Cpu::hrmc_cost(1000));
  EXPECT_EQ(rig.host.counters().rx_down_drops, 0u);
}

TEST(Host, DownCheckRunsAtTheEndOfEachPacketsHold) {
  // Two packets share the NIC's hold, 1 ms apart. The host goes down
  // between their fold points: the first is delivered, the second lost.
  RxRig rig;
  rig.nic.deliver(make_packet(1000));
  rig.sched.schedule_at(sim::milliseconds(1),
                        [&] { rig.nic.deliver(make_packet(1000)); });
  rig.sched.schedule_at(RxRig::kFoldPoint + sim::microseconds(500),
                        [&] { rig.host.set_down(true); });
  rig.sched.run_until();
  ASSERT_EQ(rig.transport.times.size(), 1u);
  EXPECT_EQ(rig.transport.times[0], RxRig::kFoldPoint + Cpu::hrmc_cost(1000));
  EXPECT_EQ(rig.host.counters().rx_offered, 2u);
  EXPECT_EQ(rig.host.counters().rx_down_drops, 1u);
}

TEST(Host, NicHandOffsCloseAgainstHostIntake) {
  // Every packet the NIC passes on is offered to the host or still in
  // the NIC's hold. Stopped mid-stream, every term is nonzero, so the
  // law fails if it loses any one of them.
  RxRig rig;
  for (int i = 0; i < 5; ++i) {
    rig.sched.schedule_at(sim::milliseconds(i),
                          [&] { rig.nic.deliver(make_packet(100)); });
  }
  rig.sched.run_until(sim::milliseconds(4));  // holds end at 2.15, 3.15 ms
  Nic::Counters c = rig.nic.counters();
  const std::uint64_t offered = rig.host.counters().rx_offered;
  const std::uint64_t held = rig.nic.rx_held();
  EXPECT_EQ(c.rx_packets, 5u);
  EXPECT_EQ(offered, 2u);
  EXPECT_EQ(held, 3u);
  EXPECT_TRUE(c.rx_handed_off(offered, held));
  EXPECT_FALSE(c.rx_handed_off(offered, 0));
  EXPECT_FALSE(c.rx_handed_off(0, held));
  c.rx_packets = 0;
  EXPECT_FALSE(c.rx_handed_off(offered, held));

  rig.sched.run_until();
  EXPECT_EQ(rig.nic.rx_held(), 0u);
  EXPECT_EQ(rig.host.counters().rx_offered, 5u);
  EXPECT_TRUE(rig.nic.counters().rx_handed_off(5, 0));
}

TEST(Host, CountsCloseInBothDirections) {
  // Drives every term of both laws above zero: passed on, each named
  // drop, and packets still in CPU work.
  sim::Scheduler sched;
  Host host(sched, "h", make_addr(10, 0, 0, 7));
  CountingTransport t;
  host.register_transport(200, &t);
  host.send(make_packet(10));  // no NIC yet
  Nic nic(sched, "n", NicConfig{}, 1);
  TimedCapture uplink(sched);
  nic.attach_uplink(&uplink);
  host.attach_nic(&nic);
  for (int i = 0; i < 3; ++i) {
    host.send(make_packet(10));
    host.deliver(make_packet(10));
  }
  host.deliver(make_packet(10, 99));  // no transport for protocol 99
  host.set_down(true);
  host.send(make_packet(10));
  host.deliver(make_packet(10));
  host.set_down(false);
  sched.run_until();
  host.send(make_packet(10));  // these two are still in CPU work
  host.deliver(make_packet(10));

  const Host::Counters& c = host.counters();
  EXPECT_EQ(c.tx_offered, 6u);
  EXPECT_EQ(c.tx_packets, 3u);
  EXPECT_EQ(c.tx_down_drops, 1u);
  EXPECT_EQ(c.tx_no_nic_drops, 1u);
  EXPECT_EQ(host.tx_in_cpu(), 1u);
  EXPECT_EQ(c.rx_offered, 6u);
  EXPECT_EQ(c.rx_packets, 3u);
  EXPECT_EQ(c.rx_down_drops, 1u);
  EXPECT_EQ(c.rx_no_transport_drops, 1u);
  EXPECT_EQ(host.rx_in_cpu(), 1u);
  EXPECT_TRUE(c.tx_conserved(host.tx_in_cpu()));
  EXPECT_TRUE(c.rx_conserved(host.rx_in_cpu()));

  sched.run_until();
  EXPECT_EQ(host.tx_in_cpu(), 0u);
  EXPECT_EQ(host.rx_in_cpu(), 0u);
  EXPECT_TRUE(c.tx_conserved(0));
  EXPECT_TRUE(c.rx_conserved(0));
  EXPECT_EQ(uplink.packets.size(), c.tx_packets);
  EXPECT_EQ(static_cast<std::uint64_t>(t.count), c.rx_packets);
}

}  // namespace
}  // namespace hrmc::net
