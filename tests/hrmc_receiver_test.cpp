// Receiver-side protocol behaviour, tested with hand-crafted packets
// injected from the sender host (the capture transport plays the sender).
#include "hrmc/receiver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "app/pattern.hpp"
#include "hrmc/modeled.hpp"
#include "net/topology.hpp"

namespace hrmc::proto {
namespace {

constexpr net::Addr kGroup = net::make_addr(224, 7, 7, 7);
constexpr net::Port kPort = 7500;

struct CaptureTransport final : net::Transport {
  void rx(kern::SkBuffPtr skb) override {
    auto h = read_header(*skb);
    if (h) headers.push_back(*h);
  }
  std::vector<Header> headers;

  [[nodiscard]] std::vector<Header> of_type(PacketType t) const {
    std::vector<Header> out;
    for (const Header& h : headers) {
      if (h.type == t) out.push_back(h);
    }
    return out;
  }
};

class ReceiverTest : public ::testing::Test {
 protected:
  explicit ReceiverTest(int receivers = 1) {
    net::TopologyConfig tcfg;
    tcfg.seed = 3;
    tcfg.groups = {net::group_a(receivers)};
    tcfg.groups[0].loss_rate = 0.0;
    topo_ = std::make_unique<net::Topology>(sched_, tcfg);
    topo_->sender().register_transport(kIpProtoHrmc, &at_sender_);
  }

  void make_receiver(const Config& cfg) {
    rcv_ = std::make_unique<HrmcReceiver>(topo_->receiver(0), cfg,
                                          net::Endpoint{kGroup, kPort},
                                          topo_->sender().addr());
    rcv_->open();
    run_for(sim::milliseconds(50));
  }

  /// Injects a packet from the sender host toward the group or receiver.
  void inject(PacketType type, kern::Seq seq, std::uint32_t length,
              std::uint32_t rate = 1'000'000, bool urg = false,
              bool fin = false, std::uint64_t pattern_base = 0,
              bool has_payload = false) {
    topo_->sender().send(packet(type, seq, length, rate, urg, fin,
                                pattern_base, has_payload));
  }

  /// The packet inject() sends, addressed to the group.
  static kern::SkBuffPtr packet(PacketType type, kern::Seq seq,
                                std::uint32_t length, std::uint32_t rate,
                                bool urg, bool fin, std::uint64_t pattern_base,
                                bool has_payload) {
    auto skb = kern::SkBuff::alloc(has_payload ? length : 0,
                                   Header::kSize + 44);
    if (has_payload) {
      app::pattern_fill({skb->put(length), length}, pattern_base);
    }
    Header h;
    h.sport = kPort;
    h.dport = kPort;
    h.seq = seq;
    h.rate = rate;
    h.length = length;
    h.tries = 1;
    h.type = type;
    h.urg = urg;
    h.fin = fin;
    write_header(*skb, h);
    skb->daddr = kGroup;
    skb->protocol = kIpProtoHrmc;
    return skb;
  }

  /// DATA packet with pattern payload; stream offset = seq - initial.
  void send_data(kern::Seq seq, std::uint32_t len, bool fin = false,
                 std::uint32_t rate = 1'000'000) {
    inject(PacketType::kData, seq, len, rate, false, fin,
           seq - Config::kInitialSeq, true);
  }

  void run_for(sim::SimTime dt) { sched_.run_until(sched_.now() + dt); }

  sim::Scheduler sched_;
  std::unique_ptr<net::Topology> topo_;
  CaptureTransport at_sender_;
  std::unique_ptr<HrmcReceiver> rcv_;
};

TEST_F(ReceiverTest, SendsJoinOnOpenWithHint) {
  make_receiver(Config{});
  EXPECT_EQ(at_sender_.of_type(PacketType::kJoin).size(), 1u);
  EXPECT_FALSE(rcv_->joined());  // no JOIN_RESPONSE yet
  inject(PacketType::kJoinResponse, Config::kInitialSeq, 0);
  run_for(sim::milliseconds(50));
  EXPECT_TRUE(rcv_->joined());
}

TEST_F(ReceiverTest, RetriesJoinUntilResponse) {
  make_receiver(Config{});
  run_for(sim::seconds(2));
  EXPECT_GE(at_sender_.of_type(PacketType::kJoin).size(), 3u);
}

TEST_F(ReceiverTest, InOrderDataIsDelivered) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  send_data(Config::kInitialSeq + 1000, 500);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->available(), 1500u);
  std::vector<std::uint8_t> buf(2000);
  const std::size_t n = rcv_->recv(buf);
  EXPECT_EQ(n, 1500u);
  EXPECT_EQ(app::pattern_verify({buf.data(), n}, 0), n);
  EXPECT_EQ(rcv_->stats().data_packets_received, 2u);
}

TEST_F(ReceiverTest, PartialRecvConsumesFront) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  run_for(sim::milliseconds(50));
  std::vector<std::uint8_t> buf(300);
  EXPECT_EQ(rcv_->recv(buf), 300u);
  EXPECT_EQ(app::pattern_verify({buf.data(), 300}, 0), 300u);
  EXPECT_EQ(rcv_->recv(buf), 300u);
  EXPECT_EQ(app::pattern_verify({buf.data(), 300}, 300), 300u);
  EXPECT_EQ(rcv_->available(), 400u);
  EXPECT_EQ(rcv_->rcv_wnd(), Config::kInitialSeq + 600);
}

TEST_F(ReceiverTest, GapTriggersImmediateNak) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  send_data(Config::kInitialSeq + 2000, 1000);  // skip [1000, 2000)
  // Short window: long enough for delivery, shorter than the NAK
  // Manager's 1.5-RTT re-send interval.
  run_for(sim::milliseconds(10));
  auto naks = at_sender_.of_type(PacketType::kNak);
  ASSERT_EQ(naks.size(), 1u);
  EXPECT_EQ(naks[0].rate, Config::kInitialSeq + 1000);  // range start
  EXPECT_EQ(naks[0].length, 1000u);
  EXPECT_EQ(naks[0].seq, Config::kInitialSeq + 1000);  // next expected
  EXPECT_EQ(rcv_->stats().out_of_order_packets, 1u);
}

TEST_F(ReceiverTest, NakSuppressionAvoidsDuplicates) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  send_data(Config::kInitialSeq + 2000, 1000);
  send_data(Config::kInitialSeq + 3000, 1000);  // same gap still open
  run_for(sim::milliseconds(10));
  EXPECT_EQ(at_sender_.of_type(PacketType::kNak).size(), 1u);
  EXPECT_GE(rcv_->stats().naks_suppressed, 1u);
}

TEST_F(ReceiverTest, NakManagerResendsAfterInterval) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  send_data(Config::kInitialSeq + 2000, 1000);
  run_for(sim::seconds(1));  // far beyond 1.5 RTTs
  EXPECT_GE(at_sender_.of_type(PacketType::kNak).size(), 2u);
}

TEST_F(ReceiverTest, RetransmissionFillsGapAndDelivers) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  send_data(Config::kInitialSeq + 2000, 1000);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->available(), 1000u);
  send_data(Config::kInitialSeq + 1000, 1000);  // the missing piece
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->available(), 3000u);
  std::vector<std::uint8_t> buf(3000);
  EXPECT_EQ(rcv_->recv(buf), 3000u);
  EXPECT_EQ(app::pattern_verify({buf.data(), 3000}, 0), 3000u);
}

TEST_F(ReceiverTest, OutOfOrderInsertAcrossSequenceWrap) {
  // Regression net for the OOO insert path near the 2^32 boundary: the
  // middle packet straddles the wrap, arrives first, and must be held
  // out of order (not mistaken for old data by a raw seq comparison).
  // send_data() bakes Config::kInitialSeq into the pattern offset, so
  // this test injects directly with explicit pattern bases.
  Config cfg;
  cfg.initial_seq = static_cast<kern::Seq>(0) - 1500;
  make_receiver(cfg);
  const kern::Seq s0 = cfg.initial_seq;          // [-1500, -500)
  const kern::Seq s1 = cfg.initial_seq + 1000;   // [-500, 500): wraps
  const kern::Seq s2 = cfg.initial_seq + 2000;   // [500, 1500)

  inject(PacketType::kData, s1, 1000, 1'000'000, false, false,
         /*pattern_base=*/1000, /*has_payload=*/true);
  run_for(sim::milliseconds(10));
  EXPECT_EQ(rcv_->stats().out_of_order_packets, 1u);
  EXPECT_EQ(rcv_->available(), 0u);
  auto naks = at_sender_.of_type(PacketType::kNak);
  ASSERT_EQ(naks.size(), 1u);
  EXPECT_EQ(naks[0].rate, s0);  // missing range starts at the anchor
  EXPECT_EQ(naks[0].length, 1000u);
  EXPECT_EQ(naks[0].seq, s0);  // next expected

  inject(PacketType::kData, s0, 1000, 1'000'000, false, false, 0, true);
  run_for(sim::milliseconds(10));
  EXPECT_EQ(rcv_->available(), 2000u);  // drained across the wrap
  inject(PacketType::kData, s2, 1000, 1'000'000, false, true, 2000, true);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->available(), 3000u);

  std::vector<std::uint8_t> buf(3000);
  ASSERT_EQ(rcv_->recv(buf), 3000u);
  EXPECT_EQ(app::pattern_verify({buf.data(), 3000}, 0), 3000u);
  EXPECT_EQ(rcv_->stats().data_packets_received, 3u);
}

TEST_F(ReceiverTest, DuplicateDataCounted) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  send_data(Config::kInitialSeq, 1000);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().duplicate_packets, 1u);
  EXPECT_EQ(rcv_->available(), 1000u);
}

TEST_F(ReceiverTest, ProbeAnsweredWithUpdateWhenDataHeld) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  run_for(sim::milliseconds(20));
  const auto updates_before = at_sender_.of_type(PacketType::kUpdate).size();
  inject(PacketType::kProbe, Config::kInitialSeq + 1000, 0);
  run_for(sim::milliseconds(20));
  auto updates = at_sender_.of_type(PacketType::kUpdate);
  ASSERT_EQ(updates.size(), updates_before + 1);
  EXPECT_EQ(updates.back().seq, Config::kInitialSeq + 1000);
  EXPECT_EQ(rcv_->stats().probes_received, 1u);
}

TEST_F(ReceiverTest, ProbeAnsweredWithNakWhenDataMissing) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  run_for(sim::milliseconds(20));
  inject(PacketType::kProbe, Config::kInitialSeq + 5000, 0);
  run_for(sim::milliseconds(20));
  auto naks = at_sender_.of_type(PacketType::kNak);
  ASSERT_EQ(naks.size(), 1u);
  EXPECT_EQ(naks[0].rate, Config::kInitialSeq + 1000);
  EXPECT_EQ(naks[0].length, 4000u);
}

TEST_F(ReceiverTest, KeepaliveRevealsLostTail) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  run_for(sim::milliseconds(20));
  // Keepalive names bytes beyond what we saw: the burst tail was lost.
  inject(PacketType::kKeepalive, Config::kInitialSeq + 3000, 0);
  run_for(sim::milliseconds(20));
  auto naks = at_sender_.of_type(PacketType::kNak);
  ASSERT_EQ(naks.size(), 1u);
  EXPECT_EQ(naks[0].rate, Config::kInitialSeq + 1000);
  EXPECT_EQ(naks[0].length, 2000u);
}

TEST_F(ReceiverTest, FinViaDataMarksComplete) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  send_data(Config::kInitialSeq + 1000, 500, /*fin=*/true);
  run_for(sim::milliseconds(50));
  EXPECT_TRUE(rcv_->complete());
  EXPECT_FALSE(rcv_->eof());  // app has not consumed yet
  std::vector<std::uint8_t> buf(1500);
  rcv_->recv(buf);
  EXPECT_TRUE(rcv_->eof());
}

TEST_F(ReceiverTest, FinViaKeepalive) {
  make_receiver(Config{});
  send_data(Config::kInitialSeq, 1000);
  inject(PacketType::kKeepalive, Config::kInitialSeq + 1000, 0,
         1'000'000, false, /*fin=*/true);
  run_for(sim::milliseconds(50));
  EXPECT_TRUE(rcv_->complete());
}

TEST_F(ReceiverTest, UpdateGeneratorRunsAfterJoin) {
  make_receiver(Config{});
  inject(PacketType::kJoinResponse, Config::kInitialSeq, 0);
  run_for(sim::seconds(3));
  // Initial period 50 jiffies = 0.5 s: several updates in 3 s.
  EXPECT_GE(at_sender_.of_type(PacketType::kUpdate).size(), 4u);
}

TEST_F(ReceiverTest, NoUpdatesInRmcMode) {
  Config cfg;
  cfg.mode = Mode::kRmc;
  make_receiver(cfg);
  inject(PacketType::kJoinResponse, Config::kInitialSeq, 0);
  send_data(Config::kInitialSeq, 1000);
  run_for(sim::seconds(3));
  EXPECT_EQ(at_sender_.of_type(PacketType::kUpdate).size(), 0u);
}

TEST_F(ReceiverTest, UpdatePeriodShrinksUnderProbes) {
  make_receiver(Config{});
  inject(PacketType::kJoinResponse, Config::kInitialSeq, 0);
  run_for(sim::milliseconds(100));
  const kern::Jiffies before = rcv_->update_period();
  // A probe in (almost) every update period drives the period down.
  for (int i = 0; i < 10; ++i) {
    inject(PacketType::kProbe, Config::kInitialSeq, 0);
    run_for(kern::from_jiffies(before));
  }
  EXPECT_LT(rcv_->update_period(), before);
}

TEST_F(ReceiverTest, UpdatePeriodGrowsWithoutProbes) {
  make_receiver(Config{});
  inject(PacketType::kJoinResponse, Config::kInitialSeq, 0);
  run_for(sim::milliseconds(100));
  const kern::Jiffies before = rcv_->update_period();
  run_for(sim::seconds(5));  // several quiet periods
  EXPECT_GT(rcv_->update_period(), before);
}

TEST_F(ReceiverTest, FixedUpdatePeriodWhenDynamicDisabled) {
  Config cfg;
  cfg.dynamic_update_timer = false;
  make_receiver(cfg);
  inject(PacketType::kJoinResponse, Config::kInitialSeq, 0);
  run_for(sim::seconds(5));
  EXPECT_EQ(rcv_->update_period(), kUpdatePeriodInit);
}

TEST_F(ReceiverTest, WarningRegionSendsRateRequest) {
  Config cfg;
  cfg.rcvbuf = 16 * 1024;
  make_receiver(cfg);
  // Fill to ~60% (warning region, default threshold 50%), advertised
  // rate huge so the WARNBUF rule fires.
  std::uint32_t filled = 0;
  while (filled < 10 * 1024) {
    send_data(Config::kInitialSeq + filled, 1024, false,
              /*rate=*/50'000'000);
    filled += 1024;
  }
  run_for(sim::milliseconds(50));
  auto ctrl = at_sender_.of_type(PacketType::kControl);
  ASSERT_GE(ctrl.size(), 1u);
  EXPECT_FALSE(ctrl.back().urg);
  EXPECT_GT(ctrl.back().rate, 0u);
}

TEST_F(ReceiverTest, NoRateRequestInSafeRegionOrLowRate) {
  Config cfg;
  cfg.rcvbuf = 64 * 1024;
  make_receiver(cfg);
  // 10% full, tiny advertised rate: rule 1/2 take no action.
  send_data(Config::kInitialSeq, 1024, false, /*rate=*/1000);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(at_sender_.of_type(PacketType::kControl).size(), 0u);
}

TEST_F(ReceiverTest, CriticalRegionSendsUrgent) {
  Config cfg;
  cfg.rcvbuf = 16 * 1024;
  make_receiver(cfg);
  std::uint32_t filled = 0;
  while (filled < 15 * 1024) {  // > 90%
    send_data(Config::kInitialSeq + filled, 1024, false, 50'000'000);
    filled += 1024;
  }
  run_for(sim::milliseconds(50));
  auto ctrl = at_sender_.of_type(PacketType::kControl);
  ASSERT_GE(ctrl.size(), 1u);
  EXPECT_TRUE(ctrl.back().urg);
  EXPECT_GE(rcv_->stats().urgent_requests_sent, 1u);
}

TEST_F(ReceiverTest, BufferOverflowDropsAndRecovers) {
  Config cfg;
  cfg.rcvbuf = 4 * 1024;
  make_receiver(cfg);
  std::uint32_t off = 0;
  for (int i = 0; i < 8; ++i) {  // 8 KB offered into a 4 KB buffer
    send_data(Config::kInitialSeq + off, 1024);
    off += 1024;
  }
  run_for(sim::milliseconds(50));
  EXPECT_GT(rcv_->stats().window_overflow_drops, 0u);
  // Application drains; retransmission of the dropped byte range lands.
  std::vector<std::uint8_t> buf(8 * 1024);
  const std::size_t got = rcv_->recv(buf);
  EXPECT_EQ(app::pattern_verify({buf.data(), got}, 0), got);
}

TEST_F(ReceiverTest, NakErrSkipsHoleAndFlagsError) {
  Config cfg;
  cfg.mode = Mode::kRmc;
  make_receiver(cfg);
  send_data(Config::kInitialSeq, 1000);
  send_data(Config::kInitialSeq + 2000, 1000);
  run_for(sim::milliseconds(50));
  inject(PacketType::kNakErr, Config::kInitialSeq + 1000, 1000);
  run_for(sim::milliseconds(50));
  EXPECT_TRUE(rcv_->stream_error());
  EXPECT_EQ(rcv_->bytes_skipped(), 1000u);
  EXPECT_EQ(rcv_->available(), 2000u);  // first packet + post-hole data
}

TEST_F(ReceiverTest, CorruptPacketCounted) {
  make_receiver(Config{});
  auto skb = kern::SkBuff::alloc(100, Header::kSize + 44);
  skb->put(100);
  Header h;
  h.sport = kPort;
  h.dport = kPort;
  h.seq = Config::kInitialSeq;
  h.length = 100;
  h.type = PacketType::kData;
  write_header(*skb, h);
  skb->mutable_bytes()[25] ^= 0xff;  // corrupt payload after checksum
  skb->daddr = kGroup;
  skb->protocol = kIpProtoHrmc;
  topo_->sender().send(std::move(skb));
  run_for(sim::milliseconds(50));
  EXPECT_EQ(rcv_->stats().bad_packets, 1u);
  EXPECT_EQ(rcv_->stats().data_packets_received, 0u);
}

TEST_F(ReceiverTest, ModeledFinOnDuplicateRetransmissionCompletes) {
  // A population whose FIN first arrives on a retransmission at or below
  // its high water, after NAK_ERR removed the only hole: the duplicate
  // completes the stream, so on_complete fires and the final AGG_UPDATE
  // goes out.
  ModeledReceiver pop(topo_->receiver(0), Config{}, net::Endpoint{kGroup, kPort},
                      /*population=*/100, /*leaf_loss=*/0.0,
                      topo_->sender().addr());
  int completions = 0;
  pop.on_complete = [&completions] { ++completions; };
  pop.open();
  run_for(sim::milliseconds(50));

  send_data(Config::kInitialSeq, 1000);
  run_for(sim::milliseconds(10));
  inject(PacketType::kProbe, Config::kInitialSeq + 3000, 0);  // hole [1000, 3000)
  run_for(sim::milliseconds(10));
  inject(PacketType::kNakErr, Config::kInitialSeq + 1000, 2000);
  run_for(sim::milliseconds(10));
  EXPECT_FALSE(pop.complete());
  const std::size_t aggs = at_sender_.of_type(PacketType::kAggUpdate).size();

  send_data(Config::kInitialSeq + 2000, 1000, /*fin=*/true);
  run_for(sim::milliseconds(10));
  EXPECT_TRUE(pop.complete());
  EXPECT_EQ(pop.stats().duplicate_packets, 1u);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(at_sender_.of_type(PacketType::kAggUpdate).size(), aggs + 1);
  pop.stop();
}

TEST_F(ReceiverTest, HoldsBytesOnlyInsideOneSegment) {
  make_receiver(Config{});
  constexpr kern::Seq k0 = Config::kInitialSeq;
  send_data(k0, 1000);
  send_data(k0 + 2000, 1000);  // two adjacent out-of-order segments
  send_data(k0 + 3000, 1000);
  send_data(k0 + 5000, 1000);
  run_for(sim::milliseconds(50));
  ASSERT_EQ(rcv_->rcv_nxt(), k0 + 1000);
  EXPECT_TRUE(rcv_->holds_bytes(k0, k0 + 1000));  // in the stream
  EXPECT_TRUE(rcv_->holds_bytes(k0 + 2000, k0 + 3000));
  EXPECT_TRUE(rcv_->holds_bytes(k0 + 2200, k0 + 2800));
  EXPECT_TRUE(rcv_->holds_bytes(k0 + 3000, k0 + 4000));
  EXPECT_TRUE(rcv_->holds_bytes(k0 + 5999, k0 + 6000));
  // A shard straddling the two adjacent segments is not held by either.
  EXPECT_FALSE(rcv_->holds_bytes(k0 + 2500, k0 + 3500));
  EXPECT_FALSE(rcv_->holds_bytes(k0 + 2000, k0 + 4000));
  EXPECT_FALSE(rcv_->holds_bytes(k0 + 500, k0 + 1500));  // runs into the hole
  EXPECT_FALSE(rcv_->holds_bytes(k0 + 1500, k0 + 2500));
  EXPECT_FALSE(rcv_->holds_bytes(k0 + 3500, k0 + 5500));
  EXPECT_FALSE(rcv_->holds_bytes(k0 + 5500, k0 + 6500));
  EXPECT_FALSE(rcv_->holds_bytes(k0 + 7000, k0 + 8000));
}

TEST_F(ReceiverTest, NakWatermarkClaimHoldsAfterEveryPacket) {
  // The NAK-hole walk starts at nak_watermark(), which is exact only
  // while every byte in [rcv_nxt, watermark) is held out of order or
  // pending in the NAK list. A random script of in-order, out-of-order,
  // duplicate and overlapping DATA, probes and keepalives, NAK_ERR above
  // rcv_nxt, evictions under a squeezed memory budget and crash/restart
  // resyncs checks that after every packet. Packets go straight to rx(),
  // and every boundary is a multiple of kCell, so checking the first
  // byte of each cell checks every byte.
  constexpr std::uint32_t kCell = 64;
  kern::MemAccountant mem(48 * 1024, 5);
  topo_->receiver(0).set_mem_accountant(mem);
  Config cfg;
  cfg.rcvbuf = 64 * 1024;
  HrmcReceiver rcv(topo_->receiver(0), cfg, net::Endpoint{kGroup, kPort},
                   topo_->sender().addr());
  rcv.open();
  run_for(sim::milliseconds(50));

  const auto deliver = [&](PacketType type, kern::Seq seq,
                           std::uint32_t length) {
    auto skb = packet(type, seq, length, 1'000'000, false, false,
                      seq - Config::kInitialSeq, type == PacketType::kData);
    skb->saddr = topo_->sender().addr();
    rcv.rx(std::move(skb));
  };
  std::uint64_t claimed_cells = 0;  // cells the walk skipped, summed
  const auto check = [&] {
    const kern::Seq nxt = rcv.rcv_nxt();
    const kern::Seq mark = rcv.nak_watermark();
    ASSERT_FALSE(kern::seq_before(mark, nxt));
    const std::vector<NakRange>& pending = rcv.nak_ranges();
    auto r = pending.begin();
    for (kern::Seq s = nxt; kern::seq_before(s, mark); s += kCell) {
      while (r != pending.end() && kern::seq_before_eq(r->to, s)) ++r;
      const bool nak = r != pending.end() && kern::seq_before_eq(r->from, s);
      ASSERT_TRUE(nak || rcv.holds_bytes(s, s + 1))
          << "byte " << s - Config::kInitialSeq << " below the watermark "
          << mark - Config::kInitialSeq << " is neither held nor pending";
      ++claimed_cells;
    }
  };

  sim::Rng rng(20261021);
  const auto cells = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::uint32_t>(rng.uniform_int(lo, hi)) * kCell;
  };
  kern::Seq top = Config::kInitialSeq;  // the sender's next new byte
  int crashes = 0;
  for (int step = 0; step < 3000; ++step) {
    if (rng.next_double() < 0.2) {
      std::vector<std::uint8_t> buf(cells(1, 256));
      rcv.recv(buf);  // the application frees buffer space
    }
    const kern::Seq nxt = rcv.rcv_nxt();
    const double pick = rng.next_double();
    if (kern::seq_diff(nxt, top) > 32 * 1024 || pick < 0.15) {
      // Repair the head of the stream (or a random hole near it).
      const kern::Seq begin = nxt + cells(0, 8);
      const std::uint32_t len = cells(1, 24);
      deliver(PacketType::kData, begin, len);
      top = kern::seq_max(top, begin + len);
    } else if (pick < 0.45) {
      const std::uint32_t len = cells(1, 24);
      if (rng.next_double() < 0.7) deliver(PacketType::kData, top, len);
      top += len;  // otherwise lost on the way
    } else if (pick < 0.60) {
      // Duplicate or overlapping retransmission anywhere near the stream.
      const auto back = static_cast<std::int64_t>(
          kern::seq_diff(nxt, top) / kCell);
      deliver(PacketType::kData, nxt + cells(-16, std::max<std::int64_t>(back, 0)),
              cells(1, 24));
    } else if (pick < 0.66) {
      deliver(rng.next_double() < 0.5 ? PacketType::kProbe
                                      : PacketType::kKeepalive,
              top + cells(0, 4), 0);
    } else if (pick < 0.70) {
      // NAK_ERR, mostly for bytes above rcv_nxt: they leave the NAK list
      // while still missing.
      deliver(PacketType::kNakErr, nxt + cells(-2, 32), cells(1, 16));
    } else if (pick < 0.74) {
      // Squeeze the budget on or off; the next DATA evicts the farthest
      // out-of-order segments and puts their bytes back on the NAK list.
      mem.set_squeeze(rng.next_double() < 0.5 ? 0.8 : 0.0);
      const std::uint32_t len = cells(1, 8);
      deliver(PacketType::kData, top, len);
      top += len;
    } else if (pick < 0.75) {
      ++crashes;
      rcv.crash();
      rcv.restart();
      top += cells(0, 64);
      deliver(PacketType::kJoinResponse, top, 0);  // resync anchor
    } else if (pick < 0.85) {
      continue;  // no packet this step
    } else {
      run_for(sim::milliseconds(rng.uniform_int(1, 40)));  // NAK timers
    }
    check();
    if (HasFatalFailure()) return;
  }
  // The script reached every path it claims to mix in.
  const ReceiverStats& st = rcv.stats();
  EXPECT_GT(st.out_of_order_packets, 1000u);
  EXPECT_GT(st.duplicate_packets, 100u);
  EXPECT_GT(st.nak_errs_received, 50u);
  EXPECT_GT(st.ooo_evictions, 100u);
  EXPECT_GT(crashes, 10);
  EXPECT_GT(claimed_cells, 100'000u);
  rcv.stop();
}

class TwoReceiverTest : public ReceiverTest {
 protected:
  TwoReceiverTest() : ReceiverTest(2) {}
};

TEST_F(TwoReceiverTest, ConsumeTakesWhatRecvCopies) {
  // Both receivers hear one script of in-order, held-back (out-of-order),
  // duplicate and overlapping DATA. One is drained with recv(), the other
  // with consume(), at the same random read sizes: each call must take the
  // same bytes and leave the two receivers in the same state.
  Config cfg;
  cfg.rcvbuf = 1024 * 1024;
  HrmcReceiver copier(topo_->receiver(0), cfg, net::Endpoint{kGroup, kPort},
                      topo_->sender().addr());
  HrmcReceiver reader(topo_->receiver(1), cfg, net::Endpoint{kGroup, kPort},
                      topo_->sender().addr());
  copier.open();
  reader.open();
  run_for(sim::milliseconds(50));

  sim::Rng rng(20261020);
  constexpr std::uint32_t kStream = 512 * 1024;
  std::uint64_t offset = 0;
  int split_reads = 0;     // calls that left part of a view queued
  int spanning_reads = 0;  // calls that took three views or more
  auto read_both = [&](std::size_t max) {
    std::vector<std::uint8_t> copied(max);
    const std::size_t n = copier.recv(copied);
    std::vector<std::uint8_t> seen;
    int views = 0;
    bool split = false;
    const std::size_t m =
        reader.consume(max, [&](const kern::SkBuff& view, std::size_t take) {
          seen.insert(seen.end(), view.data(), view.data() + take);
          ++views;
          split = take < view.size();
        });
    ASSERT_EQ(n, m);
    ASSERT_EQ(seen.size(), m);
    ASSERT_TRUE(std::equal(seen.begin(), seen.end(), copied.begin()));
    ASSERT_EQ(copier.rcv_wnd(), reader.rcv_wnd());
    ASSERT_EQ(copier.available(), reader.available());
    ASSERT_EQ(copier.stats().bytes_delivered, reader.stats().bytes_delivered);
    ASSERT_EQ(app::pattern_verify({copied.data(), n}, offset), n);
    offset += n;
    if (split) ++split_reads;
    if (views >= 3) ++spanning_reads;
  };
  auto random_read = [&] {
    // Log-uniform over [1 B, 64 KiB): many reads split a segment, and
    // the larger ones span many.
    read_both(static_cast<std::size_t>(
        std::exp(rng.uniform(0.0, std::log(65536.0)))));
  };
  auto send = [&](std::uint32_t begin, std::uint32_t end) {
    send_data(Config::kInitialSeq + begin, end - begin, end == kStream);
  };

  std::vector<std::pair<std::uint32_t, std::uint32_t>> held;
  std::uint32_t prev_begin = 0;
  int sent = 0;
  for (std::uint32_t begin = 0; begin < kStream;) {
    const std::uint32_t end = std::min<std::uint32_t>(
        kStream, begin + static_cast<std::uint32_t>(rng.uniform_int(1, 1460)));
    if (rng.next_double() < 0.1) {
      held.emplace_back(begin, end);
    } else {
      send(begin, end);
    }
    if (rng.next_double() < 0.05) send(begin, end);       // duplicate
    if (rng.next_double() < 0.05) send(prev_begin, end);  // overlap
    prev_begin = begin;
    begin = end;
    if (++sent % 8 == 0 || begin == kStream) {
      for (auto it = held.rbegin(); it != held.rend(); ++it) {
        send(it->first, it->second);
      }
      held.clear();
      run_for(sim::milliseconds(20));
      for (auto reads = rng.uniform_int(0, 3); reads > 0; --reads) {
        random_read();
        if (HasFatalFailure()) return;
      }
    }
  }
  run_for(sim::milliseconds(50));
  while (copier.available() > 0 || reader.available() > 0) {
    random_read();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(offset, kStream);
  EXPECT_TRUE(copier.eof());
  EXPECT_TRUE(reader.eof());
  EXPECT_EQ(copier.stats(), reader.stats());
  EXPECT_GT(split_reads, 20);
  EXPECT_GT(spanning_reads, 20);
  copier.stop();
  reader.stop();
}

}  // namespace
}  // namespace hrmc::proto
