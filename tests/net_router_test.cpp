#include "net/router.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/nic.hpp"

namespace hrmc::net {
namespace {

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

kern::SkBuffPtr make_packet(Addr dst, std::size_t payload = 100) {
  auto skb = kern::SkBuff::alloc(payload);
  skb->put(payload);
  skb->daddr = dst;
  return skb;
}

TEST(Router, UnicastFollowsRoute) {
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  CaptureSink a(sched), b(sched);
  r.add_route(make_addr(10, 0, 0, 1), &a);
  r.add_route(make_addr(10, 0, 0, 2), &b);
  r.deliver(make_packet(make_addr(10, 0, 0, 2)));
  sched.run_until();
  EXPECT_EQ(a.packets.size(), 0u);
  EXPECT_EQ(b.packets.size(), 1u);
}

TEST(Router, DefaultRouteUsedWhenNoMatch) {
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  CaptureSink def(sched);
  r.set_default_route(&def);
  r.deliver(make_packet(make_addr(10, 9, 9, 9)));
  sched.run_until();
  EXPECT_EQ(def.packets.size(), 1u);
}

TEST(Router, NoRouteDropsAndCounts) {
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  r.deliver(make_packet(make_addr(10, 9, 9, 9)));
  sched.run_until();
  EXPECT_EQ(r.counters().no_route_drops, 1u);
}

TEST(Router, ServiceTimeMatchesSpeed) {
  sim::Scheduler sched;
  RouterConfig cfg;
  cfg.speed_bps = 10e6;
  Router r(sched, "r", cfg, 1);
  CaptureSink sink(sched);
  r.add_route(make_addr(10, 0, 0, 1), &sink);
  // 1212 + 38 = 1250 wire bytes = 1 ms at 10 Mbps.
  r.deliver(make_packet(make_addr(10, 0, 0, 1), 1212));
  r.deliver(make_packet(make_addr(10, 0, 0, 1), 1212));
  sched.run_until();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_NEAR(sim::to_milliseconds(sink.times[0]), 1.0, 0.01);
  EXPECT_NEAR(sim::to_milliseconds(sink.times[1]), 2.0, 0.01);
}

TEST(Router, QueueLimitDrops) {
  sim::Scheduler sched;
  RouterConfig cfg;
  cfg.queue_limit = 3;
  Router r(sched, "r", cfg, 1);
  CaptureSink sink(sched);
  r.add_route(make_addr(10, 0, 0, 1), &sink);
  for (int i = 0; i < 10; ++i) {
    r.deliver(make_packet(make_addr(10, 0, 0, 1)));
  }
  // One in service + 3 queued survive.
  EXPECT_EQ(r.counters().queue_drops, 6u);
  sched.run_until();
  EXPECT_EQ(sink.packets.size(), 4u);
}

TEST(Router, MulticastDuplicatesToAllGroupMembers) {
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  CaptureSink a(sched), b(sched), c(sched);
  const Addr group = make_addr(224, 1, 1, 1);
  r.join_group(group, &a);
  r.join_group(group, &b);
  r.join_group(group, &c);
  auto pkt = make_packet(group, 64);
  pkt->put(0);
  pkt->mutable_bytes()[0] = 42;
  r.deliver(std::move(pkt));
  sched.run_until();
  ASSERT_EQ(a.packets.size(), 1u);
  ASSERT_EQ(b.packets.size(), 1u);
  ASSERT_EQ(c.packets.size(), 1u);
  // Fan-out clones share one data block until written; a write through
  // one copy must not be visible through the others (copy-on-write).
  a.packets[0]->mutable_bytes()[0] = 7;
  EXPECT_EQ(b.packets[0]->data()[0], 42);
  EXPECT_EQ(c.packets[0]->data()[0], 42);
}

TEST(Router, FanOutToIdleCardsChainsAtEachInstant) {
  // One packet fanned out to ten idle cards of one speed and one delay:
  // the ten egress completions share an instant and consecutive keys,
  // so the first takes a heap entry and nine chain behind it. Each then
  // hands its copy to its card, whose ten holds chain the same way.
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  const Addr group = make_addr(224, 1, 1, 1);
  std::vector<std::unique_ptr<Nic>> nics;
  std::vector<std::unique_ptr<CaptureSink>> hosts;
  for (int i = 0; i < 10; ++i) {
    nics.push_back(std::make_unique<Nic>(
        sched, "n", NicConfig{.rx_delay = sim::milliseconds(2)}, 1));
    hosts.push_back(std::make_unique<CaptureSink>(sched));
    nics.back()->attach_host(hosts.back().get());
    r.join_group(group, nics.back().get());
  }
  r.deliver(make_packet(group));
  EXPECT_EQ(sched.queued(), 10u);
  EXPECT_EQ(sched.chained(), 9u);
  sched.run_until();
  EXPECT_EQ(sched.chained(), 18u);
  EXPECT_EQ(sched.executed(), 20u);
  for (const auto& h : hosts) {
    ASSERT_EQ(h->times.size(), 1u);
    EXPECT_EQ(h->times[0], hosts[0]->times[0]);
  }
}

TEST(Router, MulticastWithoutMembersDrops) {
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  r.deliver(make_packet(make_addr(224, 1, 1, 1)));
  sched.run_until();
  EXPECT_EQ(r.counters().no_group_drops, 1u);
}

TEST(Router, LeaveGroupPrunes) {
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  CaptureSink a(sched), b(sched);
  const Addr group = make_addr(224, 1, 1, 1);
  r.join_group(group, &a);
  r.join_group(group, &b);
  r.leave_group(group, &a);
  EXPECT_TRUE(r.group_active(group));
  r.deliver(make_packet(group));
  sched.run_until();
  EXPECT_EQ(a.packets.size(), 0u);
  EXPECT_EQ(b.packets.size(), 1u);
  r.leave_group(group, &b);
  EXPECT_FALSE(r.group_active(group));
}

TEST(Router, JoinGroupIsIdempotent) {
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  CaptureSink a(sched);
  const Addr group = make_addr(224, 1, 1, 1);
  r.join_group(group, &a);
  r.join_group(group, &a);
  r.deliver(make_packet(group));
  sched.run_until();
  EXPECT_EQ(a.packets.size(), 1u);  // not duplicated
}

TEST(Router, CorrelatedLossIsPreFanout) {
  sim::Scheduler sched;
  RouterConfig cfg;
  cfg.loss_rate = 0.3;
  cfg.queue_limit = 10000;  // loss, not queueing, is under test
  Router r(sched, "r", cfg, 99);
  CaptureSink a(sched), b(sched);
  const Addr group = make_addr(224, 1, 1, 1);
  r.join_group(group, &a);
  r.join_group(group, &b);
  for (int i = 0; i < 2000; ++i) r.deliver(make_packet(group, 10));
  sched.run_until();
  // Loss is perfectly correlated: both receivers got exactly the same set.
  EXPECT_EQ(a.packets.size(), b.packets.size());
  EXPECT_NEAR(static_cast<double>(a.packets.size()), 1400.0, 100.0);
  EXPECT_NEAR(static_cast<double>(r.counters().loss_drops), 600.0,
              100.0);
}

TEST(Router, IngressAccountingCloses) {
  // With no disturber, every offered packet is forwarded once or dropped
  // under exactly one named ingress reason. Port queue drops come after
  // fan-out, so they close a second, per-egress sum instead.
  sim::Scheduler sched;
  RouterConfig cfg;
  cfg.loss_rate = 0.2;
  cfg.queue_limit = 4;
  Router r(sched, "r", cfg, 11);
  CaptureSink uni(sched), a(sched), b(sched);
  const Addr dst = make_addr(10, 0, 0, 1);
  const Addr group = make_addr(224, 1, 1, 1);
  r.add_route(dst, &uni);
  r.join_group(group, &a);
  r.join_group(group, &b);
  GilbertElliottConfig ge;
  ge.p_good_bad = 0.05;
  ge.p_bad_good = 0.5;
  r.set_burst_loss(ge, 13);

  const auto offer = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      r.deliver(make_packet(dst));
      r.deliver(make_packet(group));
      r.deliver(make_packet(make_addr(10, 9, 9, 9)));  // no route
      r.deliver(make_packet(make_addr(224, 2, 2, 2)));  // no members
      auto expired = make_packet(dst);
      expired->ttl = 0;
      r.deliver(std::move(expired));
    }
  };
  offer(200);
  r.set_down(true);
  offer(5);
  r.set_down(false);
  r.start_reconvergence(sim::milliseconds(1));
  offer(5);
  sched.run_until();

  const Router::Counters& c = r.counters();
  for (const std::uint64_t n :
       {c.forwarded, c.mcast_forwarded, c.down_drops, c.ttl_drops,
        c.loss_drops, c.burst_loss_drops, c.reconverge_drops,
        c.no_group_drops, c.no_route_drops, c.queue_drops}) {
    EXPECT_GT(n, 0u);
  }
  EXPECT_EQ(c.offered, 5u * 210u);
  EXPECT_TRUE(c.ingress_conserved());
  EXPECT_EQ(c.forwarded + 2 * c.mcast_forwarded,
            uni.packets.size() + a.packets.size() + b.packets.size() +
                c.queue_drops);
}

TEST(Router, IngressAccountingCountsDuplicatesAndHolds) {
  // A disturber's duplicate is routed like an offered packet, and a held
  // packet is counted when its hold ends and it is routed.
  sim::Scheduler sched;
  RouterConfig cfg;
  cfg.queue_limit = 10000;
  Router r(sched, "r", cfg, 3);
  CaptureSink sink(sched);
  const Addr dst = make_addr(10, 0, 0, 1);
  r.add_route(dst, &sink);
  DisturbConfig& d = r.ensure_disturb(17).config();
  d.dup_prob = 0.3;
  d.reorder_prob = 0.3;
  d.reorder_hold = sim::milliseconds(5);
  for (int i = 0; i < 500; ++i) r.deliver(make_packet(dst));
  sched.run_until();

  const Router::Counters& c = r.counters();
  EXPECT_GT(c.duplicated, 0u);
  EXPECT_GT(c.held, 0u);
  EXPECT_EQ(c.offered + c.duplicated, c.forwarded);
  EXPECT_EQ(sink.packets.size(), c.forwarded);
}

TEST(Router, ReconvergenceBlackholesUntilWindowExpires) {
  // After a trunk flap the router recomputes forwarding state; until
  // then every packet — unicast and multicast, both directions — is
  // black-holed with its own drop reason, then forwarding resumes with
  // no residue.
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  CaptureSink uni(sched), grp(sched);
  const Addr dst = make_addr(10, 0, 0, 1);
  const Addr group = make_addr(224, 1, 1, 1);
  r.add_route(dst, &uni);
  r.join_group(group, &grp);

  r.start_reconvergence(sim::milliseconds(50));
  EXPECT_TRUE(r.reconverging());
  r.deliver(make_packet(dst));
  r.deliver(make_packet(group));
  sched.run_until(sim::milliseconds(40));
  EXPECT_EQ(uni.packets.size(), 0u);
  EXPECT_EQ(grp.packets.size(), 0u);
  EXPECT_EQ(r.counters().reconverge_drops, 2u);

  sched.run_until(sim::milliseconds(60));
  EXPECT_FALSE(r.reconverging());
  r.deliver(make_packet(dst));
  r.deliver(make_packet(group));
  sched.run_until();
  EXPECT_EQ(uni.packets.size(), 1u);
  EXPECT_EQ(grp.packets.size(), 1u);
  EXPECT_EQ(r.counters().reconverge_drops, 2u);  // no new drops
}

TEST(Router, ReconvergenceWindowExtendsNeverShortens) {
  // Overlapping flaps: a second reconvergence start can push the window
  // out but a shorter one must not pull an in-progress window in.
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  r.start_reconvergence(sim::milliseconds(100));
  r.start_reconvergence(sim::milliseconds(10));  // no-op: earlier end
  sched.run_until(sim::milliseconds(50));
  EXPECT_TRUE(r.reconverging());
  r.start_reconvergence(sim::milliseconds(100));  // extends to t=150ms
  sched.run_until(sim::milliseconds(120));
  EXPECT_TRUE(r.reconverging());
  sched.run_until(sim::milliseconds(160));
  EXPECT_FALSE(r.reconverging());
}

TEST(Router, ZeroReconvergenceWindowIsNoOp) {
  // A zero window must leave the very next packet deliverable — chaos
  // plans with delay 0 are bit-identical to plans without the hook.
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  CaptureSink sink(sched);
  r.add_route(make_addr(10, 0, 0, 1), &sink);
  r.start_reconvergence(0);
  EXPECT_FALSE(r.reconverging());
  r.deliver(make_packet(make_addr(10, 0, 0, 1)));
  sched.run_until();
  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(r.counters().reconverge_drops, 0u);
}

TEST(Router, TtlExpiredDrops) {
  sim::Scheduler sched;
  Router r(sched, "r", RouterConfig{}, 1);
  CaptureSink sink(sched);
  r.add_route(make_addr(10, 0, 0, 1), &sink);
  auto pkt = make_packet(make_addr(10, 0, 0, 1));
  pkt->ttl = 0;
  r.deliver(std::move(pkt));
  sched.run_until();
  EXPECT_EQ(sink.packets.size(), 0u);
  EXPECT_EQ(r.counters().ttl_drops, 1u);
}

}  // namespace
}  // namespace hrmc::net
