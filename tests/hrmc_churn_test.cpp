// Churn storms at the sender: a 10k-JOIN flash crowd absorbed through
// batched admission at sublinear cost, and mass departures (every
// member dying at once) resolved under each eviction policy with a
// bounded event count — no O(members) scan per feedback packet, no
// NAK_ERR panic.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/pattern.hpp"
#include "hrmc/sender.hpp"
#include "net/topology.hpp"

namespace hrmc::proto {
namespace {

constexpr net::Addr kGroup = net::make_addr(224, 7, 7, 7);
constexpr net::Port kPort = 7500;

/// Distinct unicast address for synthetic receiver `i` (kept away from
/// the topology's real subnets so responses die at the routers).
net::Addr fake_addr(unsigned i) {
  return net::make_addr(10, 50 + i / (250 * 250), (i / 250) % 250,
                        i % 250 + 1);
}

struct CaptureTransport final : net::Transport {
  void rx(kern::SkBuffPtr skb) override {
    auto h = read_header(*skb);
    if (h) headers.push_back(*h);
  }
  std::vector<Header> headers;
  [[nodiscard]] std::size_t count(PacketType t) const {
    std::size_t n = 0;
    for (const Header& h : headers) n += h.type == t ? 1 : 0;
    return n;
  }
};

struct Rig {
  explicit Rig(const Config& cfg) {
    net::TopologyConfig tcfg;
    tcfg.seed = 12;
    tcfg.groups = {net::group_a(1)};
    tcfg.groups[0].loss_rate = 0.0;
    topo = std::make_unique<net::Topology>(sched, tcfg);
    topo->receiver(0).register_transport(kIpProtoHrmc, &tap);
    topo->receiver(0).join_group(kGroup);
    snd = std::make_unique<HrmcSender>(topo->sender(), cfg, kPort,
                                       net::Endpoint{kGroup, kPort});
  }

  /// Crafts a feedback packet from synthetic receiver address `from`
  /// and hands it straight to the sender's transport (the network trip
  /// is not what these tests measure).
  void inject(net::Addr from, PacketType type, kern::Seq seq) {
    auto skb = kern::SkBuff::alloc(0, Header::kSize + 44);
    Header h;
    h.sport = kPort;
    h.dport = kPort;
    h.seq = seq;
    h.tries = 1;
    h.type = type;
    write_header(*skb, h);
    skb->saddr = from;
    skb->daddr = topo->sender().addr();
    skb->protocol = kIpProtoHrmc;
    snd->rx(std::move(skb));
  }

  std::size_t offer(std::size_t bytes) {
    std::vector<std::uint8_t> data(bytes);
    app::pattern_fill(data, 0);
    return snd->send(data);
  }

  void run_for(sim::SimTime dt) { sched.run_until(sched.now() + dt); }

  sim::Scheduler sched;
  std::unique_ptr<net::Topology> topo;
  CaptureTransport tap;
  std::unique_ptr<HrmcSender> snd;
};

// --- Flash crowd ------------------------------------------------------

TEST(FlashCrowd, TenThousandJoinsInOneRttAreBatchedAndSublinear) {
  Config cfg;
  cfg.join_batch_threshold = 4;
  cfg.mcast_probe_threshold = 16;
  cfg.minbuf_rtts = 1;
  Rig rig(cfg);
  constexpr unsigned kN = 10000;

  // The whole crowd JOINs at one instant — far inside one RTT.
  for (unsigned i = 0; i < kN; ++i) {
    rig.inject(fake_addr(i), PacketType::kJoin, Config::kInitialSeq);
  }
  EXPECT_EQ(rig.snd->members().size(), kN);
  EXPECT_EQ(rig.snd->stats().joins_received, kN);

  rig.run_for(sim::milliseconds(100));
  // Admission cost is sublinear in crowd size: past the threshold the
  // per-JOIN unicast response is replaced by one multicast flush, so
  // the whole storm resolves in a handful of control packets (and a
  // handful of scheduler events — 10k unicast responses would cost
  // tens of thousands).
  EXPECT_GE(rig.snd->stats().join_batch_responses, 1u);
  EXPECT_LE(rig.snd->stats().join_batch_responses, 4u);
  const std::size_t responses = rig.tap.count(PacketType::kJoinResponse);
  EXPECT_GE(responses, 1u);
  EXPECT_LE(responses, 8u);
  EXPECT_LT(rig.sched.executed(), 5000u);

  // The crowd then confirms a short transfer: release needs the minimum
  // over 10k members after every feedback packet, which the cached
  // minimum serves with O(N) total rescan work instead of O(N^2).
  rig.offer(8192);
  rig.snd->close();
  rig.run_for(sim::seconds(1));
  const kern::Seq head = rig.snd->snd_nxt();
  for (unsigned i = 0; i < kN; ++i) {
    rig.inject(fake_addr(i), PacketType::kUpdate, head);
  }
  rig.run_for(sim::seconds(2));
  EXPECT_TRUE(rig.snd->finished());
  EXPECT_EQ(rig.snd->stats().nak_errs_sent, 0u);
  EXPECT_LT(rig.snd->members().min_rescan_work(), 8u * kN);
}

TEST(FlashCrowd, BelowThresholdStillAnswersPerJoin) {
  // Trickle joins must keep the interactive unicast handshake — the
  // batch path only engages on a genuine burst.
  Config cfg;
  cfg.join_batch_threshold = 50;
  Rig rig(cfg);
  for (unsigned i = 0; i < 3; ++i) {
    rig.inject(fake_addr(i), PacketType::kJoin, Config::kInitialSeq);
    rig.run_for(sim::milliseconds(30));  // separate jiffies
  }
  EXPECT_EQ(rig.snd->members().size(), 3u);
  EXPECT_EQ(rig.snd->stats().join_batch_responses, 0u);
}

// --- Mass departure ---------------------------------------------------

struct DepartureOutcome {
  std::uint64_t events = 0;
  SenderStats stats;
  bool finished = false;
  sim::SimTime stall = 0;
};

/// `n` members JOIN, the stream flows, and then every one of them goes
/// permanently silent (a site-wide power loss). Returns the sender's
/// fate under `policy`.
DepartureOutcome mass_departure(EvictionPolicy policy, unsigned n) {
  Config cfg;
  cfg.eviction_policy = policy;
  cfg.join_batch_threshold = 8;
  cfg.mcast_probe_threshold = 16;
  cfg.minbuf_rtts = 1;
  Rig rig(cfg);
  for (unsigned i = 0; i < n; ++i) {
    rig.inject(fake_addr(i), PacketType::kJoin, Config::kInitialSeq);
  }
  rig.run_for(sim::milliseconds(50));
  rig.offer(64 * 1024);
  rig.snd->close();
  rig.run_for(sim::seconds(60));  // silence: nobody ever confirms

  DepartureOutcome out;
  out.events = rig.sched.executed();
  out.stats = rig.snd->stats();
  out.finished = rig.snd->finished();
  out.stall = rig.snd->window_stall_time();
  return out;
}

TEST(MassDeparture, EvictResolvesOneThousandDeathsWithBoundedEvents) {
  const DepartureOutcome big = mass_departure(EvictionPolicy::kEvict, 1000);
  EXPECT_TRUE(big.finished);
  EXPECT_EQ(big.stats.members_evicted, 1000u);
  EXPECT_EQ(big.stats.nak_errs_sent, 0u);

  // Event-count bound: resolving 4x the deaths must not cost anywhere
  // near 4x the scheduler events — probing collapses to multicast past
  // the threshold and eviction scans only the still-lacking cache, so
  // the event count is a function of the probe schedule, not the
  // member count. (An O(members) implementation fails this at 4x+.)
  const DepartureOutcome small = mass_departure(EvictionPolicy::kEvict, 250);
  ASSERT_TRUE(small.finished);
  EXPECT_EQ(small.stats.members_evicted, 250u);
  EXPECT_LT(static_cast<double>(big.events),
            2.0 * static_cast<double>(small.events));
}

TEST(MassDeparture, StallPolicyHoldsWindowWithoutNakErr) {
  // Paper-faithful kStall: the sender degrades to a window stall — it
  // must never finish, never evict, and never blast NAK_ERR.
  const DepartureOutcome out = mass_departure(EvictionPolicy::kStall, 1000);
  EXPECT_FALSE(out.finished);
  EXPECT_EQ(out.stats.members_evicted, 0u);
  EXPECT_EQ(out.stats.nak_errs_sent, 0u);
  EXPECT_GT(out.stall, sim::seconds(30));
}

TEST(MassDeparture, RmcFallbackReleasesPastTheDead) {
  const DepartureOutcome out =
      mass_departure(EvictionPolicy::kRmcFallback, 1000);
  EXPECT_TRUE(out.finished);
  EXPECT_EQ(out.stats.members_evicted, 0u);  // the dead stay in the table
  EXPECT_GT(out.stats.dead_member_releases, 0u);
  EXPECT_EQ(out.stats.nak_errs_sent, 0u);  // nobody asked for released data
}

}  // namespace
}  // namespace hrmc::proto
