#include "net/nic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "kern/mem.hpp"
#include "net/addr.hpp"
#include "net/ring.hpp"
#include "net/router.hpp"
#include "sim/random.hpp"

namespace hrmc::net {
namespace {

/// Records everything delivered to it, with timestamps.
struct CaptureSink final : PacketSink {
  explicit CaptureSink(sim::Scheduler& s) : sched(&s) {}
  void deliver(kern::SkBuffPtr skb) override {
    packets.push_back(std::move(skb));
    times.push_back(sched->now());
  }
  sim::Scheduler* sched;
  std::vector<kern::SkBuffPtr> packets;
  std::vector<sim::SimTime> times;
};

kern::SkBuffPtr make_packet(std::size_t payload) {
  auto skb = kern::SkBuff::alloc(payload);
  skb->put(payload);
  return skb;
}

TEST(Ring, GrowsFromEmptyAndKeepsFifoOrderAcrossWraps) {
  // Pushes outrun pops a little more each round, so the head has moved
  // (and the ring has wrapped) before each time it doubles.
  Ring<std::unique_ptr<int>> r;
  EXPECT_TRUE(r.empty());
  int pushed = 0;
  int popped = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 5 + 7 * round; ++i) {
      r.push_back(std::make_unique<int>(pushed++));
    }
    for (int i = 0; i < 3 + 4 * round; ++i) {
      EXPECT_EQ(*r.front(), popped);
      EXPECT_EQ(*r.pop_front(), popped++);
    }
    EXPECT_EQ(r.size(), static_cast<std::size_t>(pushed - popped));
  }
  while (!r.empty()) EXPECT_EQ(*r.pop_front(), popped++);
  EXPECT_EQ(popped, pushed);
}

TEST(Nic, TransmitSerializesAtLinkRate) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.link_bps = 10e6;
  Nic nic(sched, "n", cfg, 1);
  CaptureSink up(sched);
  nic.attach_uplink(&up);

  // 1212 payload + 38 framing = 1250 wire bytes = 1 ms at 10 Mbps.
  nic.transmit(make_packet(1212));
  nic.transmit(make_packet(1212));
  sched.run_until();
  ASSERT_EQ(up.packets.size(), 2u);
  EXPECT_NEAR(sim::to_milliseconds(up.times[0]), 1.0, 0.01);
  EXPECT_NEAR(sim::to_milliseconds(up.times[1]), 2.0, 0.01);
}

TEST(Nic, TxQueueOverflowDrops) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.tx_ring = 4;
  Nic nic(sched, "n", cfg, 1);
  CaptureSink up(sched);
  nic.attach_uplink(&up);

  // One packet goes into serialization immediately; 4 queue; rest drop.
  for (int i = 0; i < 10; ++i) nic.transmit(make_packet(100));
  EXPECT_EQ(nic.counters().tx_ring_drops, 5u);
  sched.run_until();
  EXPECT_EQ(up.packets.size(), 5u);
}

TEST(Nic, TxFreeReflectsOccupancy) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.tx_ring = 8;
  Nic nic(sched, "n", cfg, 1);
  CaptureSink up(sched);
  nic.attach_uplink(&up);
  EXPECT_EQ(nic.tx_free(), 8u);
  nic.transmit(make_packet(100));  // dequeued into serialization
  nic.transmit(make_packet(100));
  nic.transmit(make_packet(100));
  EXPECT_EQ(nic.tx_free(), 8u - nic.tx_queue_len());
  sched.run_until();
  EXPECT_EQ(nic.tx_free(), 8u);
}

TEST(Nic, TxRingExactFillBoundary) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.tx_ring = 4;
  Nic nic(sched, "n", cfg, 1);
  CaptureSink up(sched);
  nic.attach_uplink(&up);

  // Exactly fill: one serializing + tx_ring queued = 5 accepted.
  for (int i = 0; i < 5; ++i) nic.transmit(make_packet(100));
  EXPECT_EQ(nic.counters().tx_ring_drops, 0u);
  EXPECT_EQ(nic.tx_free(), 0u);

  // One more is the first to overflow.
  nic.transmit(make_packet(100));
  EXPECT_EQ(nic.counters().tx_ring_drops, 1u);
  EXPECT_EQ(nic.tx_free(), 0u);  // full stays full, never underflows
  EXPECT_TRUE(nic.counters().tx_conserved(nic.tx_queue_len()));

  sched.run_until();
  EXPECT_EQ(up.packets.size(), 5u);
  EXPECT_EQ(nic.tx_free(), 4u);
  // Accounting closes: everything offered either went out or dropped
  // (and, above, was still in the ring).
  EXPECT_TRUE(nic.counters().tx_conserved(nic.tx_queue_len()));
}

TEST(Nic, RxAccountingClosesUnderLoss) {
  // Every packet offered on receive is passed on or dropped under
  // exactly one named reason, with every receive drop reason armed:
  // Bernoulli loss, a wireless fade, memory admission and link-down.
  // Each count is nonzero, so the law fails if it loses any one term.
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.rx_loss_rate = 0.2;
  Nic nic(sched, "n", cfg, 5);
  CaptureSink host(sched);
  nic.attach_host(&host);
  WirelessLossConfig wl;
  wl.p_good_bad = 0.05;
  nic.set_wireless_loss(wl, 9);
  // A budget below one full-size frame: every 1250-byte frame is
  // refused, while control-sized frames pass from the rx reserve.
  kern::MemAccountant mem(1000, 3);
  kern::MemLedger ledger(mem);
  nic.set_mem_admission(&ledger);

  for (int i = 0; i < 1000; ++i) {
    nic.deliver(make_packet(i % 2 == 0 ? 100 : 1212));
  }
  nic.set_link_up(false);
  for (int i = 0; i < 10; ++i) nic.deliver(make_packet(100));
  sched.run_until();

  const Nic::Counters& c = nic.counters();
  EXPECT_GT(c.rx_packets, 0u);
  EXPECT_GT(c.rx_loss_drops, 0u);
  EXPECT_GT(c.wireless_drops, 0u);
  EXPECT_GT(c.mem_drops, 0u);
  EXPECT_EQ(c.rx_link_down_drops, 10u);
  EXPECT_EQ(c.rx_offered, 1010u);
  EXPECT_TRUE(c.rx_conserved());
  EXPECT_EQ(host.packets.size(), c.rx_packets);
}

TEST(Nic, TxFreeRecoversAsRingDrains) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.tx_ring = 2;
  cfg.link_bps = 10e6;  // 1212+38 bytes = 1 ms per packet
  Nic nic(sched, "n", cfg, 1);
  CaptureSink up(sched);
  nic.attach_uplink(&up);

  for (int i = 0; i < 3; ++i) nic.transmit(make_packet(1212));
  EXPECT_EQ(nic.tx_free(), 0u);
  // After the first serialization completes, one ring slot frees
  // (the second packet moves from the ring into serialization).
  sched.run_until(sim::microseconds(1500));
  EXPECT_EQ(nic.tx_free(), 1u);
  sched.run_until();
  EXPECT_EQ(nic.tx_free(), 2u);
  EXPECT_EQ(up.packets.size(), 3u);
}

TEST(Nic, LinkDownDropsTransmit) {
  sim::Scheduler sched;
  Nic nic(sched, "n", NicConfig{}, 1);
  CaptureSink up(sched);
  nic.attach_uplink(&up);

  nic.set_link_up(false);
  for (int i = 0; i < 5; ++i) nic.transmit(make_packet(100));
  sched.run_until();
  EXPECT_TRUE(up.packets.empty());
  EXPECT_EQ(nic.counters().tx_link_down_drops, 5u);
}

TEST(Nic, LinkDownDropsReceive) {
  sim::Scheduler sched;
  Nic nic(sched, "n", NicConfig{}, 1);
  CaptureSink host(sched);
  nic.attach_host(&host);

  nic.set_link_up(false);
  for (int i = 0; i < 5; ++i) nic.deliver(make_packet(100));
  sched.run_until();
  EXPECT_TRUE(host.packets.empty());
  EXPECT_EQ(nic.counters().rx_link_down_drops, 5u);
}

TEST(Nic, LinkUpResumesTraffic) {
  sim::Scheduler sched;
  Nic nic(sched, "n", NicConfig{}, 1);
  CaptureSink up(sched);
  nic.attach_uplink(&up);

  nic.set_link_up(false);
  nic.transmit(make_packet(100));
  nic.set_link_up(true);
  nic.transmit(make_packet(100));
  sched.run_until();
  EXPECT_EQ(up.packets.size(), 1u);
  EXPECT_EQ(nic.counters().tx_link_down_drops, 1u);
}

TEST(Nic, RxDelayApplied) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.rx_delay = sim::milliseconds(20);
  Nic nic(sched, "n", cfg, 1);
  CaptureSink host(sched);
  nic.attach_host(&host);

  nic.deliver(make_packet(100));
  sched.run_until();
  ASSERT_EQ(host.packets.size(), 1u);
  EXPECT_EQ(host.times[0], sim::milliseconds(20));
}

TEST(Nic, RxHoldAddsTheHostsLatency) {
  // A sink that states a receive latency gets it folded into the NIC's
  // one hold, read when the sink is attached.
  struct SlowSink final : PacketSink {
    explicit SlowSink(sim::Scheduler& s) : capture(s) {}
    void deliver(kern::SkBuffPtr skb) override {
      capture.deliver(std::move(skb));
    }
    sim::SimTime rx_latency() const override {
      return sim::microseconds(150);
    }
    CaptureSink capture;
  };
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.rx_delay = sim::milliseconds(20);
  Nic nic(sched, "n", cfg, 1);
  SlowSink host(sched);
  nic.attach_host(&host);

  nic.deliver(make_packet(100));
  sched.run_until();
  ASSERT_EQ(host.capture.times.size(), 1u);
  EXPECT_EQ(host.capture.times[0],
            sim::milliseconds(20) + sim::microseconds(150));
  EXPECT_EQ(sched.executed(), 1u);  // one event for both delays
}

/// A capture sink that states a host's 150 µs receive latency.
struct LatencySink final : PacketSink {
  explicit LatencySink(sim::Scheduler& s) : capture(s) {}
  void deliver(kern::SkBuffPtr skb) override {
    capture.deliver(std::move(skb));
  }
  sim::SimTime rx_latency() const override { return sim::microseconds(150); }
  CaptureSink capture;
};

TEST(Nic, HoldKeepsOneSchedulerEventPerCard) {
  // Packets arrive in pairs, one pair per millisecond for 40 ms, into a
  // 20 ms hold: up to 42 are held at once (the ring grows from empty
  // and wraps), yet the card has one pending scheduler event. Each
  // packet still reaches the host at arrival + rx_delay + 150 µs, in
  // arrival order.
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.rx_delay = sim::milliseconds(20);
  Nic nic(sched, "n", cfg, 1);
  LatencySink host(sched);
  nic.attach_host(&host);
  std::vector<sim::SimTime> arrivals;
  for (std::size_t i = 0; i < 80; ++i) {
    arrivals.push_back(sim::milliseconds(static_cast<std::int64_t>(i / 2)));
    sched.schedule_at(arrivals.back(),
                      [&nic, i] { nic.deliver(make_packet(10 + i)); });
  }
  for (const std::int64_t t : {5, 20, 30, 45}) {
    sched.run_until(sim::milliseconds(t));
    const std::size_t arrived =
        std::min<std::size_t>(arrivals.size(), 2 * (t + 1));
    // The arrival events still to fire, plus the card's one.
    EXPECT_EQ(sched.queued(), arrivals.size() - arrived + 1)
        << "t=" << t << " ms";
    EXPECT_GT(nic.rx_held(), 1u) << "t=" << t << " ms";
  }
  sched.run_until();
  EXPECT_EQ(nic.rx_held(), 0u);
  EXPECT_EQ(sched.queued(), 0u);
  ASSERT_EQ(host.capture.times.size(), arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(host.capture.times[i],
              arrivals[i] + sim::milliseconds(20) + sim::microseconds(150));
    EXPECT_EQ(host.capture.packets[i]->size(), 10 + i);
  }
  // One arrival event and one hand-off per packet.
  EXPECT_EQ(sched.executed(), 2 * arrivals.size());
}

/// The reference hold: one event per packet, scheduled on arrival for
/// the whole hold.
struct PerPacketHold final : PacketSink {
  PerPacketHold(sim::Scheduler& s, sim::SimTime hold, PacketSink& next)
      : sched(&s), hold(hold), next(&next) {}
  void deliver(kern::SkBuffPtr skb) override {
    sched->schedule_after(hold, [this, skb = std::move(skb)]() mutable {
      next->deliver(std::move(skb));
    });
  }
  sim::Scheduler* sched;
  sim::SimTime hold;
  PacketSink* next;
};

/// (card, time) of every hand-off, from all cards.
using HandOffLog = std::vector<std::pair<int, sim::SimTime>>;

struct LogSink final : PacketSink {
  LogSink(sim::Scheduler& s, int card, HandOffLog& log)
      : sched(&s), card(card), log(&log) {}
  void deliver(kern::SkBuffPtr) override {
    log->emplace_back(card, sched->now());
  }
  sim::Scheduler* sched;
  int card;
  HandOffLog* log;
};

/// A router fans 200 equal packets, sent on a 100 µs grid, out to three
/// cards: two with 2 ms holds and one with a 1 ms hold. The 1 ms card
/// hands off a packet at the instant a 2 ms card hands off the packet
/// sent 1 ms earlier, and only the order of the keys the two took on
/// arrival breaks that tie. `per_packet` swaps each card for the
/// one-event-per-packet model.
HandOffLog run_fanout(bool per_packet) {
  sim::Scheduler sched;
  HandOffLog log;
  Router router(sched, "r", RouterConfig{.speed_bps = 100e6}, 1);
  const Addr group = make_addr(224, 1, 1, 1);
  const sim::SimTime holds[] = {sim::milliseconds(2), sim::milliseconds(2),
                                sim::milliseconds(1)};
  std::vector<std::unique_ptr<LogSink>> hosts;
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<std::unique_ptr<PerPacketHold>> models;
  for (int card = 0; card < 3; ++card) {
    hosts.push_back(std::make_unique<LogSink>(sched, card, log));
    if (per_packet) {
      models.push_back(
          std::make_unique<PerPacketHold>(sched, holds[card], *hosts.back()));
      router.join_group(group, models.back().get());
    } else {
      nics.push_back(std::make_unique<Nic>(
          sched, "n", NicConfig{.rx_delay = holds[card]}, 1));
      nics.back()->attach_host(hosts.back().get());
      router.join_group(group, nics.back().get());
    }
  }
  sim::Rng rng(7);
  sim::SimTime t = 0;
  for (int i = 0; i < 200; ++i) {
    t += sim::microseconds(100 * rng.uniform_int(0, 3));
    sched.schedule_at(t, [&router, group] {
      auto skb = make_packet(100);
      skb->daddr = group;
      router.deliver(std::move(skb));
    });
  }
  sched.run_until();
  return log;
}

TEST(Nic, FanOutDeliversInThePerPacketEventOrder) {
  const HandOffLog want = run_fanout(true);
  ASSERT_EQ(want.size(), 600u);
  // The 1 ms card ties with a 2 ms card somewhere, so the order checked
  // below is not fixed by time alone.
  std::size_t ties = 0;
  for (std::size_t i = 1; i < want.size(); ++i) {
    ties += want[i].second == want[i - 1].second &&
            (want[i].first == 2) != (want[i - 1].first == 2);
  }
  EXPECT_GT(ties, 10u);
  EXPECT_EQ(run_fanout(false), want);
}

TEST(Nic, PacketsHeldWhenTheLinkGoesDownAreStillDelivered) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.rx_delay = sim::milliseconds(20);
  Nic nic(sched, "n", cfg, 1);
  CaptureSink host(sched);
  nic.attach_host(&host);
  for (int i = 0; i < 3; ++i) nic.deliver(make_packet(100));
  sched.schedule_at(sim::milliseconds(5), [&] {
    nic.set_link_up(false);
    nic.deliver(make_packet(100));  // refused at the card
  });
  sched.run_until();
  EXPECT_EQ(host.times,
            std::vector<sim::SimTime>(3, sim::milliseconds(20)));
  EXPECT_EQ(nic.counters().rx_link_down_drops, 1u);
  EXPECT_TRUE(nic.counters().rx_conserved());
}

TEST(Nic, RxLossIsApplied) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.rx_loss_rate = 0.5;
  Nic nic(sched, "n", cfg, 42);
  CaptureSink host(sched);
  nic.attach_host(&host);

  for (int i = 0; i < 1000; ++i) nic.deliver(make_packet(10));
  sched.run_until();
  const auto dropped = nic.counters().rx_loss_drops;
  EXPECT_NEAR(static_cast<double>(dropped), 500.0, 60.0);
  EXPECT_EQ(host.packets.size() + dropped, 1000u);
}

TEST(Nic, NoLossWhenRateZero) {
  sim::Scheduler sched;
  Nic nic(sched, "n", NicConfig{}, 42);
  CaptureSink host(sched);
  nic.attach_host(&host);
  for (int i = 0; i < 100; ++i) nic.deliver(make_packet(10));
  sched.run_until();
  EXPECT_EQ(host.packets.size(), 100u);
}

TEST(Nic, SustainedOverBurstTriggersOverruns) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.link_bps = 100e6;
  cfg.tx_ring = 100000;  // queue never the limit in this test
  cfg.overrun_burst = 10;
  cfg.overrun_prob = 1.0;  // deterministic for the test
  Nic nic(sched, "n", cfg, 7);
  CaptureSink up(sched);
  nic.attach_uplink(&up);

  // Jiffy 0: 20 enqueues (10 over, but no *previous* over-jiffy: clean).
  for (int i = 0; i < 20; ++i) nic.transmit(make_packet(100));
  EXPECT_EQ(nic.counters().tx_overrun_drops, 0u);

  // Jiffy 1: sustained pressure; enqueues beyond 10 drop.
  sched.schedule_at(sim::milliseconds(10), [&] {
    for (int i = 0; i < 20; ++i) nic.transmit(make_packet(100));
  });
  sched.run_until(sim::milliseconds(11));
  EXPECT_EQ(nic.counters().tx_overrun_drops, 10u);
}

TEST(Nic, IsolatedBurstsNeverOverrun) {
  sim::Scheduler sched;
  NicConfig cfg;
  cfg.tx_ring = 100000;
  cfg.overrun_burst = 10;
  cfg.overrun_prob = 1.0;
  Nic nic(sched, "n", cfg, 7);
  CaptureSink up(sched);
  nic.attach_uplink(&up);
  // Big bursts separated by quiet jiffies: all clean.
  for (int j = 0; j < 10; j += 2) {
    sched.schedule_at(sim::milliseconds(10 * j), [&] {
      for (int i = 0; i < 50; ++i) nic.transmit(make_packet(100));
    });
  }
  sched.run_until();
  EXPECT_EQ(nic.counters().tx_overrun_drops, 0u);
}

}  // namespace
}  // namespace hrmc::net
