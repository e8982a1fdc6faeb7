// Forward-error-correction extension (§6 future work (4)): GF(256)
// Reed–Solomon parity every k packets; a receiver missing up to r
// packets of a group rebuilds them locally without a retransmission
// round trip. Parity row 0 is the plain XOR of the seed protocol.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "app/pattern.hpp"
#include "harness/scenario.hpp"
#include "hrmc/fec.hpp"
#include "hrmc/receiver.hpp"
#include "hrmc/sender.hpp"
#include "net/topology.hpp"

namespace hrmc::proto {
namespace {

constexpr net::Addr kGroup = net::make_addr(224, 7, 7, 7);
constexpr net::Port kPort = 7500;
constexpr std::size_t kMss = 1000;  // small MSS keeps test math readable

struct SenderTap final : net::Transport {
  void rx(kern::SkBuffPtr skb) override {
    auto h = read_header(*skb);
    if (h) headers.push_back(*h);
  }
  std::vector<Header> headers;
  [[nodiscard]] std::size_t count(PacketType t) const {
    std::size_t n = 0;
    for (const auto& h : headers) n += h.type == t ? 1 : 0;
    return n;
  }
};

class FecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::TopologyConfig tcfg;
    tcfg.seed = 31;
    tcfg.groups = {net::group_a(1)};
    tcfg.groups[0].loss_rate = 0.0;
    topo_ = std::make_unique<net::Topology>(sched_, tcfg);
    topo_->sender().register_transport(kIpProtoHrmc, &tap_);

    cfg_.mss = kMss;
    if (cfg_.fec_group == 0) cfg_.fec_group = 4;
    rcv_ = std::make_unique<HrmcReceiver>(topo_->receiver(0), cfg_,
                                          net::Endpoint{kGroup, kPort},
                                          topo_->sender().addr());
    rcv_->open();
    sched_.run_until(sim::milliseconds(50));
  }

  /// Sends one DATA packet of `len` pattern bytes at stream offset `off`.
  void send_data(std::uint64_t off, std::size_t len = kMss,
                 bool fin = false) {
    auto skb = kern::SkBuff::alloc(len, Header::kSize + 44);
    app::pattern_fill({skb->put(len), len}, off);
    Header h;
    h.sport = kPort;
    h.dport = kPort;
    h.seq = cfg_.initial_seq + static_cast<kern::Seq>(off);
    h.length = static_cast<std::uint32_t>(len);
    h.tries = 1;
    h.type = PacketType::kData;
    h.fin = fin;
    write_header(*skb, h);
    skb->daddr = kGroup;
    skb->protocol = kIpProtoHrmc;
    topo_->sender().send(std::move(skb));
  }

  /// Sends RS parity row `row` over the group of `span` pattern bytes
  /// starting at stream offset `off0`, encoded exactly as the sender
  /// does (tail shard zero-padded). Row 0 is the plain XOR.
  void send_fec_row(std::uint64_t off0, std::size_t span, std::size_t row) {
    const std::size_t plen = std::min(span, kMss);
    auto skb = kern::SkBuff::alloc(plen, Header::kSize + 44);
    std::uint8_t* p = skb->put(plen);
    std::memset(p, 0, plen);
    const std::size_t k = (span + plen - 1) / plen;
    for (std::size_t g = 0; g < k; ++g) {
      const std::size_t slen = g + 1 < k ? plen : span - (k - 1) * plen;
      std::vector<std::uint8_t> shard(plen, 0);
      for (std::size_t i = 0; i < slen; ++i) {
        shard[i] = app::pattern_byte(off0 + g * plen + i);
      }
      fec::accumulate(p, shard.data(), plen, fec::coefficient(row, g));
    }
    Header h;
    h.sport = kPort;
    h.dport = kPort;
    h.seq = cfg_.initial_seq + static_cast<kern::Seq>(off0);
    h.rate = static_cast<std::uint32_t>(span);
    h.length = static_cast<std::uint32_t>(plen);
    h.tries = static_cast<std::uint8_t>(row + 1);
    h.type = PacketType::kFec;
    write_header(*skb, h);
    skb->daddr = kGroup;
    skb->protocol = kIpProtoHrmc;
    topo_->sender().send(std::move(skb));
  }

  /// Sends the parity packet for the 4 packets starting at offset `off0`.
  void send_fec(std::uint64_t off0) { send_fec_row(off0, 4 * kMss, 0); }

  /// Sends a KEEPALIVE naming stream position `upto` (FIN when set).
  void send_keepalive(std::uint64_t upto, bool fin) {
    auto skb = kern::SkBuff::alloc(0, Header::kSize + 44);
    Header h;
    h.sport = kPort;
    h.dport = kPort;
    h.seq = cfg_.initial_seq + static_cast<kern::Seq>(upto);
    h.tries = 1;
    h.type = PacketType::kKeepalive;
    h.fin = fin;
    write_header(*skb, h);
    skb->daddr = kGroup;
    skb->protocol = kIpProtoHrmc;
    topo_->sender().send(std::move(skb));
  }

  void run_for(sim::SimTime dt) { sched_.run_until(sched_.now() + dt); }

  std::uint64_t drain_verify() {
    std::uint8_t buf[8192];
    std::uint64_t off = 0;
    std::size_t n;
    while ((n = rcv_->recv(buf)) > 0) {
      EXPECT_EQ(app::pattern_verify({buf, n}, off), n);
      off += n;
    }
    return off;
  }

  sim::Scheduler sched_;
  std::unique_ptr<net::Topology> topo_;
  SenderTap tap_;
  Config cfg_;
  std::unique_ptr<HrmcReceiver> rcv_;
};

TEST_F(FecTest, ReconstructsSingleMissingPacket) {
  // Packets 0,1,3 arrive; 2 is lost; parity recovers it — the stream is
  // complete with zero retransmissions.
  send_data(0 * kMss);
  send_data(1 * kMss);
  send_data(3 * kMss);
  send_fec(0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 1u);
  EXPECT_EQ(rcv_->available(), 4 * kMss);
  EXPECT_EQ(drain_verify(), 4 * kMss);
}

TEST_F(FecTest, ReconstructsInOrderHeadLoss) {
  // The FIRST packet of the group is the lost one.
  send_data(1 * kMss);
  send_data(2 * kMss);
  send_data(3 * kMss);
  send_fec(0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 1u);
  EXPECT_EQ(drain_verify(), 4 * kMss);
}

TEST_F(FecTest, TwoLossesAreBeyondParity) {
  send_data(0 * kMss);
  send_data(3 * kMss);
  send_fec(0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 0u);
  EXPECT_EQ(rcv_->available(), kMss);  // only packet 0 in order
}

TEST_F(FecTest, CompleteGroupIgnoresParity) {
  for (int g = 0; g < 4; ++g) send_data(g * kMss);
  send_fec(0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 0u);
  EXPECT_EQ(rcv_->stats().fec_packets_received, 1u);
  EXPECT_EQ(drain_verify(), 4 * kMss);
}

TEST_F(FecTest, RecoveryAfterConsumptionUsesCache) {
  // Packets 0 and 1 arrive and are consumed by the app before the
  // parity shows up; loss of packet 2 is still recoverable because the
  // payload cache retains consumed packets.
  send_data(0 * kMss);
  send_data(1 * kMss);
  run_for(sim::milliseconds(20));
  EXPECT_EQ(drain_verify(), 2 * kMss);  // app consumed them
  send_data(3 * kMss);
  send_fec(0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 1u);
  std::uint8_t buf[8192];
  std::uint64_t off = 2 * kMss;
  std::size_t n;
  while ((n = rcv_->recv(buf)) > 0) {
    EXPECT_EQ(app::pattern_verify({buf, n}, off), n);
    off += n;
  }
  EXPECT_EQ(off, 4 * kMss);
}

TEST_F(FecTest, PartialReadsLeaveCachedShardsWhole) {
  // The app reads packets 0 and 1 in 300-byte chunks, so recv pulls a
  // queued skb mid-packet. The FEC cache holds its own view of each
  // payload: the later parity must still find both shards whole and
  // rebuild packet 2 byte for byte.
  send_data(0 * kMss);
  send_data(1 * kMss);
  run_for(sim::milliseconds(20));
  std::uint8_t chunk[300];
  std::uint64_t off = 0;
  std::size_t n;
  while ((n = rcv_->recv(chunk)) > 0) {
    EXPECT_EQ(app::pattern_verify({chunk, n}, off), n);
    off += n;
  }
  ASSERT_EQ(off, 2 * kMss);
  send_data(3 * kMss);
  send_fec(0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 1u);
  std::uint8_t buf[8192];
  while ((n = rcv_->recv(buf)) > 0) {
    EXPECT_EQ(app::pattern_verify({buf, n}, off), n);
    off += n;
  }
  EXPECT_EQ(off, 4 * kMss);
}

TEST_F(FecTest, MalformedParityIgnored) {
  send_data(0 * kMss);
  // Span not a multiple of length: must be rejected quietly.
  auto skb = kern::SkBuff::alloc(kMss, Header::kSize + 44);
  skb->put(kMss);
  Header h;
  h.sport = kPort;
  h.dport = kPort;
  h.seq = Config::kInitialSeq;
  h.rate = 4 * kMss + 17;
  h.length = kMss;
  h.tries = 1;
  h.type = PacketType::kFec;
  write_header(*skb, h);
  skb->daddr = kGroup;
  skb->protocol = kIpProtoHrmc;
  topo_->sender().send(std::move(skb));
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 0u);
  EXPECT_EQ(rcv_->available(), kMss);
}

TEST_F(FecTest, ResyncDiscardsGroupsStraddlingTheAnchor) {
  // Crash-restart regression: the pre-crash FEC cache held a partial
  // group, and after the URG resync re-anchored the stream a parity
  // packet spanning the anchor could "recover" packets whose true
  // content died with the crash. The cache must be wiped at resync and
  // any group straddling the anchor discarded, while fully post-anchor
  // groups keep working.
  send_data(0 * kMss);
  send_data(1 * kMss);
  send_data(8 * kMss);  // out-of-order: seeds the [8K,12K) FEC group
  run_for(sim::milliseconds(20));
  EXPECT_EQ(drain_verify(), 2 * kMss);

  rcv_->crash();
  run_for(sim::milliseconds(10));
  rcv_->restart();
  run_for(sim::milliseconds(10));
  EXPECT_GE(tap_.count(PacketType::kJoin), 1u);

  // The sender's resync response anchors the stream at offset 10*kMss.
  const std::uint64_t anchor = 10 * kMss;
  auto skb = kern::SkBuff::alloc(0, Header::kSize + 44);
  Header h;
  h.sport = kPort;
  h.dport = kPort;
  h.seq = Config::kInitialSeq + static_cast<kern::Seq>(anchor);
  h.tries = 1;
  h.type = PacketType::kJoinResponse;
  write_header(*skb, h);
  skb->daddr = topo_->receiver(0).addr();
  skb->protocol = kIpProtoHrmc;
  topo_->sender().send(std::move(skb));
  run_for(sim::milliseconds(10));

  // Parity for [8K,12K) straddles the anchor: its pre-anchor packets
  // are gone for good, so the group must be dropped, not repaired.
  send_fec(8 * kMss);
  run_for(sim::milliseconds(20));
  EXPECT_EQ(rcv_->stats().fec_stale_groups, 1u);
  EXPECT_EQ(rcv_->stats().fec_recoveries, 0u);

  // A fully post-anchor group still recovers a single loss.
  send_data(12 * kMss);
  send_data(13 * kMss);
  send_data(15 * kMss);
  send_fec(12 * kMss);
  run_for(sim::milliseconds(20));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 1u);

  // Fill the head and verify the whole post-anchor stream pattern.
  send_data(10 * kMss);
  send_data(11 * kMss);
  run_for(sim::milliseconds(20));
  std::uint8_t buf[8192];
  std::uint64_t off = anchor;
  std::size_t n;
  while ((n = rcv_->recv(buf)) > 0) {
    EXPECT_EQ(app::pattern_verify({buf, n}, off), n);
    off += n;
  }
  EXPECT_EQ(off, 16 * kMss);
}

TEST_F(FecTest, TruncatedGroupTailLossRecoveredWithoutNak) {
  // End-of-stream regression (the seed XOR path discarded the parity
  // accumulator at group interruption): a transfer of 2 full packets
  // plus a short 500-byte tail loses the FINAL packet; the truncated
  // group's parity (span 2*kMss + 500) must rebuild it with zero NAKs.
  const std::size_t tail = 500;
  send_data(0 * kMss);
  send_data(1 * kMss);
  // The 500-byte FIN packet at offset 2*kMss is lost.
  send_fec_row(0, 2 * kMss + tail, 0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 1u);
  EXPECT_EQ(rcv_->available(), 2 * kMss + tail);
  // FIN arrives via the keepalive the sender emits while draining.
  send_keepalive(2 * kMss + tail, /*fin=*/true);
  run_for(sim::milliseconds(200));
  EXPECT_TRUE(rcv_->complete());
  EXPECT_EQ(rcv_->stats().naks_sent, 0u);
  EXPECT_EQ(drain_verify(), 2 * kMss + tail);
}

TEST_F(FecTest, TwoLossesRecoveredWithTwoParityRows) {
  // r = 2: shards 1 and 2 of a 4-packet group are lost; rows 0 and 1
  // decode both (the seed protocol could never recover more than one).
  send_data(0 * kMss);
  send_data(3 * kMss);
  send_fec_row(0, 4 * kMss, 0);
  send_fec_row(0, 4 * kMss, 1);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 2u);
  EXPECT_EQ(rcv_->available(), 4 * kMss);
  EXPECT_EQ(drain_verify(), 4 * kMss);
}

TEST_F(FecTest, ThreeLossesRecoveredWithThreeParityRows) {
  send_data(2 * kMss);
  send_fec_row(0, 4 * kMss, 0);
  send_fec_row(0, 4 * kMss, 1);
  send_fec_row(0, 4 * kMss, 2);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 3u);
  EXPECT_EQ(drain_verify(), 4 * kMss);
}

TEST_F(FecTest, LossesBeyondParityBudgetFallBackToNak) {
  // Two losses, one parity row: decode is impossible — the receiver
  // notes the failure once and selective-repeat recovers on the normal
  // NAK clock.
  send_data(0 * kMss);
  send_data(3 * kMss);
  send_fec_row(0, 4 * kMss, 0);
  run_for(sim::milliseconds(400));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 0u);
  EXPECT_EQ(rcv_->stats().fec_decode_failures, 1u);
  EXPECT_GE(rcv_->stats().naks_sent, 1u);
}

TEST_F(FecTest, AnchorStraddleDiscardsEveryParityRow) {
  // Multi-parity variant of the resync regression: BOTH rows of a group
  // straddling the anchor must be discarded, not just the first.
  rcv_->crash();
  run_for(sim::milliseconds(10));
  rcv_->restart();
  run_for(sim::milliseconds(10));
  const std::uint64_t anchor = 2 * kMss;
  auto skb = kern::SkBuff::alloc(0, Header::kSize + 44);
  Header h;
  h.sport = kPort;
  h.dport = kPort;
  h.seq = cfg_.initial_seq + static_cast<kern::Seq>(anchor);
  h.tries = 1;
  h.type = PacketType::kJoinResponse;
  write_header(*skb, h);
  skb->daddr = topo_->receiver(0).addr();
  skb->protocol = kIpProtoHrmc;
  topo_->sender().send(std::move(skb));
  run_for(sim::milliseconds(10));

  // Parity first (before post-anchor data can deliver the group): the
  // [0, 4K) group straddles the anchor at 2K, so BOTH rows are stale.
  send_fec_row(0, 4 * kMss, 0);
  send_fec_row(0, 4 * kMss, 1);
  run_for(sim::milliseconds(10));
  EXPECT_EQ(rcv_->stats().fec_stale_groups, 2u);
  EXPECT_EQ(rcv_->stats().fec_recoveries, 0u);
  // Post-anchor data still delivers via the normal path.
  send_data(2 * kMss);
  send_data(3 * kMss);
  run_for(sim::milliseconds(10));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 0u);
}

TEST_F(FecTest, EvictedSiblingMidGroupFailsDecode) {
  // Shard 1 of group 0 is lost; its siblings arrive but kFecCacheGroups
  // later groups then evict their payloads from the bounded cache. The
  // late parity finds the stream "holding" the siblings while their
  // bytes are gone: decode must fail cleanly (stat + no splice), and ARQ
  // remains responsible for the hole.
  send_data(0 * kMss);
  send_data(2 * kMss);
  send_data(3 * kMss);
  const int evicting = static_cast<int>(4 * kFecCacheGroups);
  for (int g = 4; g < 4 + evicting; ++g) send_data(g * kMss);
  send_fec_row(0, 4 * kMss, 0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 0u);
  EXPECT_EQ(rcv_->stats().fec_decode_failures, 1u);
  EXPECT_EQ(rcv_->available(), kMss);  // only shard 0 in order
}

TEST_F(FecTest, RetransmittedDuplicateBelowTheCacheBoundIsFound) {
  // The cache skips its duplicate scan only for a begin past every
  // cached one. Retransmissions of packets 4 and 5, below that bound,
  // must still be found: a second entry each would fill the cache and
  // evict packets 0 and 1 early, and the late parity could no longer
  // rebuild packet 2.
  const int cap = static_cast<int>(kFecCacheGroups * 4);
  send_data(0 * kMss);
  send_data(1 * kMss);
  for (int p = 3; p < cap; ++p) send_data(p * kMss);  // cap - 1 entries
  send_data(4 * kMss);
  send_data(5 * kMss);
  send_data(cap * kMss);  // the cache is now exactly full
  send_fec(0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().duplicate_packets, 2u);
  EXPECT_EQ(rcv_->stats().fec_decode_failures, 0u);
  EXPECT_EQ(rcv_->stats().fec_recoveries, 1u);
  EXPECT_EQ(drain_verify(), (cap + 1) * kMss);
}

class FecWrapTest : public FecTest {
 protected:
  void SetUp() override {
    // The 4-packet group starts 2 packets before the 2^32 wrap.
    cfg_.initial_seq = static_cast<kern::Seq>(0 - 2 * kMss);
    FecTest::SetUp();
  }
};

TEST_F(FecWrapTest, GroupStraddlingSequenceWrapRecovers) {
  // Shard 2 (the first shard past the wrap point) is lost and rebuilt:
  // all group arithmetic is modular, none of it may compare raw seqs.
  send_data(0 * kMss);
  send_data(1 * kMss);
  send_data(3 * kMss);
  send_fec_row(0, 4 * kMss, 0);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 1u);
  EXPECT_EQ(rcv_->available(), 4 * kMss);
  EXPECT_EQ(drain_verify(), 4 * kMss);
}

TEST_F(FecWrapTest, TwoRowWrapGroupRecoversTwoLosses) {
  send_data(1 * kMss);
  send_data(2 * kMss);
  send_fec_row(0, 4 * kMss, 0);
  send_fec_row(0, 4 * kMss, 1);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().fec_recoveries, 2u);
  EXPECT_EQ(drain_verify(), 4 * kMss);
}

TEST(FecEndToEnd, SenderEmitsParityEveryKPackets) {
  harness::Workload wl;
  wl.file_bytes = 292 * 1024;  // 1460 * 8 * 25 = 200 full-MSS packets
  harness::Scenario sc = harness::lan_scenario(1, 10e6, 256 << 10, wl, 91);
  sc.topo.groups[0].loss_rate = 0.0;
  sc.proto.fec_group = 8;
  harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  // 292K / 1460 = 204.8 packets -> 25 full groups of 8 plus a tail
  // flush. Sub-MSS packets (stream tail, app-pacing gaps) now close
  // their group early with a truncated-span parity instead of
  // discarding the accumulator, so every byte is parity-covered and a
  // couple of extra flushes over the 26 floor are expected.
  EXPECT_GE(r.sender.fec_packets_sent, 26u);
  EXPECT_LE(r.sender.fec_packets_sent, 29u);
}

TEST(FecEndToEnd, FecCutsRetransmissionsUnderLoss) {
  harness::Workload wl;
  wl.file_bytes = 2 * 1024 * 1024;

  auto run_with = [&](std::size_t group) {
    harness::Scenario sc =
        harness::lan_scenario(2, 10e6, 256 << 10, wl, 92);
    sc.topo.groups[0].loss_rate = 0.02;
    sc.topo.correlated_share = 0.0;  // independent (wireless-like) loss
    sc.proto.fec_group = group;
    sc.time_limit = sim::seconds(1200);
    return harness::run_transfer(sc);
  };

  harness::RunResult off = run_with(0);
  harness::RunResult on = run_with(8);
  ASSERT_TRUE(off.completed);
  ASSERT_TRUE(on.completed);
  EXPECT_TRUE(on.verify_ok);
  EXPECT_GT(on.receivers_total.fec_recoveries, 0u);
  EXPECT_LT(on.sender.retransmissions, off.sender.retransmissions)
      << "FEC should absorb most single losses before they cost a NAK";
  EXPECT_LT(on.receivers_total.naks_sent, off.receivers_total.naks_sent);
}

TEST(FecEndToEnd, TailFlushEmitsParityForPartialGroup) {
  // Regression: the seed sender discarded the parity accumulator when a
  // sub-MSS packet or the stream end interrupted a group, leaving every
  // transfer tail unprotected. 10 full packets + one 700-byte FIN
  // packet with fec_group=8 must emit TWO parity packets: the full
  // group and the truncated [8..10.5) tail group flushed at FIN.
  harness::Workload wl;
  wl.file_bytes = 10 * 1460 + 700;
  harness::Scenario sc = harness::lan_scenario(1, 10e6, 256 << 10, wl, 93);
  sc.topo.groups[0].loss_rate = 0.0;
  sc.proto.fec_group = 8;
  harness::RunResult r = harness::run_transfer(sc);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_EQ(r.sender.fec_packets_sent, 2u);
  // Parity payload is min(mss, span): 1460 for both groups (the
  // truncated group still spans more than one MSS).
  EXPECT_EQ(r.sender.fec_parity_bytes, 2u * 1460u);
}

TEST(FecEndToEnd, AdaptiveRateRespondsToLossAndStaysBounded) {
  harness::Workload wl;
  wl.file_bytes = 2 * 1024 * 1024;

  auto run_with = [&](double loss) {
    harness::Scenario sc = harness::lan_scenario(2, 10e6, 256 << 10, wl, 94);
    sc.topo.groups[0].loss_rate = loss;
    sc.topo.correlated_share = 0.0;
    sc.proto.fec_group = 8;
    sc.proto.fec_parity_min = 1;
    sc.proto.fec_parity_max = 4;
    sc.proto.fec_adapt_interval = sim::milliseconds(100);
    sc.time_limit = sim::seconds(1200);
    return harness::run_transfer(sc);
  };

  harness::RunResult clean = run_with(0.0);
  ASSERT_TRUE(clean.completed);
  EXPECT_EQ(clean.sender.fec_rate_increases, 0u)
      << "no loss, no reason to spend parity bandwidth";
  EXPECT_EQ(clean.sender.fec_parity_rate, 1u);

  harness::RunResult lossy = run_with(0.05);
  ASSERT_TRUE(lossy.completed);
  EXPECT_TRUE(lossy.verify_ok);
  EXPECT_GE(lossy.sender.fec_rate_increases, 1u)
      << "5% loss must push the parity rate above the floor";
  EXPECT_GE(lossy.sender.fec_parity_rate, 1u);
  EXPECT_LE(lossy.sender.fec_parity_rate, 4u) << "clamped at fec_parity_max";
  EXPECT_GT(lossy.receivers_total.fec_recoveries, 0u);
}

TEST(FecEndToEnd, ModeledPopulationMirrorsFullReceiverFecBehavior) {
  // Modeled-vs-full differential (the modeled path used to count kFec
  // packets and then model pure ARQ): under the same loss, turning FEC
  // on must cut upstream NAKs for BOTH the full receiver and the
  // modeled population, and the modeled population must report local
  // parity repairs.
  harness::Workload wl;
  wl.file_bytes = 1 * 1024 * 1024;

  auto run_with = [&](std::size_t group, bool modeled) {
    harness::Scenario sc = harness::lan_scenario(2, 10e6, 256 << 10, wl, 95);
    sc.topo.groups[0].loss_rate = 0.02;
    sc.topo.correlated_share = 0.0;
    sc.proto.fec_group = group;
    sc.proto.fec_parity_min = 2;  // fixed r=2 (no adaptation): like for like
    sc.proto.fec_parity_max = 2;
    sc.time_limit = sim::seconds(1200);
    if (modeled) {
      sc.modeled = {harness::ModeledGroup{1, 200, 0.01}};
    }
    return harness::run_transfer(sc);
  };

  harness::RunResult full_off = run_with(0, false);
  harness::RunResult full_on = run_with(8, false);
  harness::RunResult model_off = run_with(0, true);
  harness::RunResult model_on = run_with(8, true);
  ASSERT_TRUE(full_off.completed);
  ASSERT_TRUE(full_on.completed);
  ASSERT_TRUE(model_off.completed);
  ASSERT_TRUE(model_on.completed);
  EXPECT_GT(full_on.receivers_total.fec_recoveries, 0u);
  EXPECT_GT(model_on.receivers_total.fec_recoveries, 0u)
      << "the population must model parity repair, not just count kFec";
  EXPECT_LT(full_on.receivers_total.naks_sent,
            full_off.receivers_total.naks_sent);
  EXPECT_LT(model_on.receivers_total.naks_sent,
            model_off.receivers_total.naks_sent)
      << "modeled holes must NAK only when losses exceed the parity budget";
}

}  // namespace
}  // namespace hrmc::proto
