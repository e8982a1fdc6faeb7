// Sender-side protocol behaviour, tested with hand-crafted feedback
// injected from a receiver host (a capture transport plays the receiver).
#include "hrmc/sender.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/pattern.hpp"
#include "net/topology.hpp"

namespace hrmc::proto {
namespace {

constexpr net::Addr kGroup = net::make_addr(224, 7, 7, 7);
constexpr net::Port kPort = 7500;

struct CaptureTransport final : net::Transport {
  void rx(kern::SkBuffPtr skb) override {
    auto h = read_header(*skb);
    if (h) {
      headers.push_back(*h);
      payload_bytes += skb->size();
    }
  }
  std::vector<Header> headers;
  std::size_t payload_bytes = 0;

  [[nodiscard]] std::vector<Header> of_type(PacketType t) const {
    std::vector<Header> out;
    for (const Header& h : headers) {
      if (h.type == t) out.push_back(h);
    }
    return out;
  }
};

class SenderTest : public ::testing::Test {
 protected:
  SenderTest() {
    net::TopologyConfig tcfg;
    tcfg.seed = 4;
    tcfg.groups = {net::group_a(2)};
    tcfg.groups[0].loss_rate = 0.0;
    topo_ = std::make_unique<net::Topology>(sched_, tcfg);
    for (int i = 0; i < 2; ++i) {
      topo_->receiver(i).register_transport(kIpProtoHrmc, &tap_[i]);
      topo_->receiver(i).join_group(kGroup);
    }
  }

  void make_sender(const Config& cfg) {
    snd_ = std::make_unique<HrmcSender>(topo_->sender(), cfg, kPort,
                                        net::Endpoint{kGroup, kPort});
  }

  /// Feedback packet from receiver `idx` to the sender.
  void inject_from(int idx, PacketType type, kern::Seq seq,
                   std::uint32_t rate = 0, std::uint32_t length = 0,
                   bool urg = false) {
    auto skb = kern::SkBuff::alloc(0, Header::kSize + 44);
    Header h;
    h.sport = kPort;
    h.dport = kPort;
    h.seq = seq;
    h.rate = rate;
    h.length = length;
    h.tries = 1;
    h.type = type;
    h.urg = urg;
    write_header(*skb, h);
    skb->daddr = topo_->sender().addr();
    skb->protocol = kIpProtoHrmc;
    topo_->receiver(idx).send(std::move(skb));
  }

  std::size_t offer(std::size_t bytes) {
    std::vector<std::uint8_t> data(bytes);
    app::pattern_fill(data, offered_);
    const std::size_t n = snd_->send(data);
    offered_ += n;
    return n;
  }

  void run_for(sim::SimTime dt) { sched_.run_until(sched_.now() + dt); }

  sim::Scheduler sched_;
  std::unique_ptr<net::Topology> topo_;
  CaptureTransport tap_[2];
  std::unique_ptr<HrmcSender> snd_;
  std::uint64_t offered_ = 0;
};

TEST_F(SenderTest, FragmentsStreamIntoMssPackets) {
  Config cfg;
  cfg.mss = 1000;
  make_sender(cfg);
  offer(3500);
  run_for(sim::seconds(2));
  auto data = tap_[0].of_type(PacketType::kData);
  ASSERT_GE(data.size(), 4u);
  EXPECT_EQ(data[0].length, 1000u);
  EXPECT_EQ(data[0].seq, Config::kInitialSeq);
  EXPECT_EQ(data[1].seq, Config::kInitialSeq + 1000);
  // Sequence numbers tile the stream.
  std::uint64_t total = 0;
  for (const auto& h : data) total += h.length;
  EXPECT_EQ(total, 3500u);
}

TEST_F(SenderTest, SendRespectsBufferLimit) {
  Config cfg;
  cfg.sndbuf = 8 * 1024;
  make_sender(cfg);
  EXPECT_EQ(offer(100 * 1024), 8 * 1024u);
  EXPECT_EQ(snd_->free_space(), 0u);
  EXPECT_EQ(offer(1), 0u);  // would block
}

TEST_F(SenderTest, JoinAddsMemberAndResponds) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(snd_->members().size(), 1u);
  EXPECT_EQ(tap_[0].of_type(PacketType::kJoinResponse).size(), 1u);
  EXPECT_EQ(snd_->stats().joins_received, 1u);
}

TEST_F(SenderTest, LeaveRemovesMemberAndResponds) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  inject_from(1, PacketType::kJoin, Config::kInitialSeq);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(snd_->members().size(), 2u);
  inject_from(0, PacketType::kLeave, Config::kInitialSeq);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(snd_->members().size(), 1u);
  EXPECT_EQ(tap_[0].of_type(PacketType::kLeaveResponse).size(), 1u);
}

TEST_F(SenderTest, NakTriggersRetransmissionAndRateCut) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(4096);
  // NAK promptly (a *fresh* loss signal): cuts only apply to data sent
  // within ~2 RTO — a NAK for old data (late joiner) must not cut. Wait
  // just until the first packet leaves (slow start paces it out).
  for (int i = 0; i < 100 && tap_[0].of_type(PacketType::kData).empty();
       ++i) {
    run_for(sim::milliseconds(10));
  }
  const auto rate_before = snd_->current_rate();
  const auto data_before = tap_[0].of_type(PacketType::kData).size();
  ASSERT_GT(data_before, 0u);
  inject_from(0, PacketType::kNak, Config::kInitialSeq,
              /*rate=range start*/ Config::kInitialSeq, /*len*/ 1460);
  run_for(sim::milliseconds(5));  // NAK arrives; growth hasn't resumed yet
  EXPECT_EQ(snd_->stats().naks_received, 1u);
  EXPECT_LE(snd_->current_rate(), rate_before);
  EXPECT_GE(snd_->stats().rate_cuts, 1u);
  run_for(sim::milliseconds(200));
  EXPECT_EQ(snd_->stats().retransmissions, 1u);
  EXPECT_GT(tap_[0].of_type(PacketType::kData).size(), data_before);
}

TEST_F(SenderTest, StaleNakDoesNotCutRate) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(4096);
  run_for(sim::seconds(2));  // data is now old news
  inject_from(0, PacketType::kNak, Config::kInitialSeq,
              Config::kInitialSeq, 1460);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(snd_->stats().naks_received, 1u);
  EXPECT_EQ(snd_->stats().rate_cuts, 0u);  // catch-up, not congestion
  EXPECT_GE(snd_->stats().retransmissions, 1u);  // but still retransmitted
}

TEST_F(SenderTest, DuplicateNaksCollapse) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  inject_from(1, PacketType::kJoin, Config::kInitialSeq);
  offer(4096);
  run_for(sim::seconds(1));
  // Both receivers NAK the same packet nearly simultaneously.
  inject_from(0, PacketType::kNak, Config::kInitialSeq,
              Config::kInitialSeq, 1460);
  inject_from(1, PacketType::kNak, Config::kInitialSeq,
              Config::kInitialSeq, 1460);
  run_for(sim::milliseconds(100));
  EXPECT_EQ(snd_->stats().naks_received, 2u);
  EXPECT_EQ(snd_->stats().retransmissions, 1u);  // collapsed
}

TEST_F(SenderTest, NakBelowWindowEarnsNakErr) {
  Config cfg;
  cfg.mode = Mode::kRmc;
  cfg.minbuf_rtts = 1;  // quick release for the test
  make_sender(cfg);
  offer(2048);
  snd_->close();
  run_for(sim::seconds(5));  // everything sent and released
  ASSERT_TRUE(snd_->finished());
  inject_from(0, PacketType::kNak, Config::kInitialSeq,
              Config::kInitialSeq, 1000);
  run_for(sim::milliseconds(100));
  EXPECT_EQ(snd_->stats().nak_errs_sent, 1u);
  ASSERT_EQ(tap_[0].of_type(PacketType::kNakErr).size(), 1u);
  EXPECT_EQ(tap_[0].of_type(PacketType::kNakErr)[0].seq,
            Config::kInitialSeq);
}

TEST_F(SenderTest, HrmcBlocksReleaseUntilAllMembersConfirm) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  inject_from(1, PacketType::kJoin, Config::kInitialSeq);
  offer(1024);
  snd_->close();
  run_for(sim::seconds(2));
  // Receiver 0 confirms; receiver 1 stays silent: no release, and from
  // here on probes go only to receiver 1.
  inject_from(0, PacketType::kUpdate, Config::kInitialSeq + 1024);
  run_for(sim::milliseconds(50));
  const auto probes_to_0 = tap_[0].of_type(PacketType::kProbe).size();
  const auto probes_to_1 = tap_[1].of_type(PacketType::kProbe).size();
  run_for(sim::seconds(3));
  EXPECT_FALSE(snd_->finished());
  EXPECT_GT(snd_->stats().probes_sent, 0u);
  EXPECT_GT(tap_[1].of_type(PacketType::kProbe).size(), probes_to_1);
  EXPECT_EQ(tap_[0].of_type(PacketType::kProbe).size(), probes_to_0);

  inject_from(1, PacketType::kUpdate, Config::kInitialSeq + 1024);
  run_for(sim::seconds(2));
  EXPECT_TRUE(snd_->finished());
}

TEST_F(SenderTest, StopFoldsOpenStall) {
  // A run can end mid-stall: stop() closes the open interval, so the
  // harvested counter equals the accessor, which always included it.
  make_sender(Config{});  // kStall: waits on receiver 0 forever
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(1024);
  snd_->close();
  run_for(sim::seconds(5));
  ASSERT_TRUE(snd_->window_stalled());
  const sim::SimTime open = snd_->window_stall_time();
  EXPECT_GT(open, snd_->stats().window_stall_time);
  snd_->stop();
  EXPECT_EQ(snd_->stats().window_stall_time, snd_->window_stall_time());
  EXPECT_EQ(snd_->stats().window_stall_time, open);
}

TEST_F(SenderTest, RmcReleasesWithoutConfirmation) {
  Config cfg;
  cfg.mode = Mode::kRmc;
  make_sender(cfg);
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(1024);
  snd_->close();
  run_for(sim::seconds(5));
  EXPECT_TRUE(snd_->finished());
  EXPECT_EQ(snd_->stats().probes_sent, 0u);
}

TEST_F(SenderTest, CompleteInfoMetricCountsReleases) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(1024);
  snd_->close();
  inject_from(0, PacketType::kUpdate, Config::kInitialSeq + 1024);
  run_for(sim::seconds(3));
  ASSERT_TRUE(snd_->finished());
  EXPECT_EQ(snd_->stats().release_decisions, 1u);
  EXPECT_EQ(snd_->stats().releases_with_complete_info, 1u);
}

TEST_F(SenderTest, UrgentControlStopsTransmission) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  run_for(sim::milliseconds(100));
  offer(200 * 1024);
  run_for(sim::milliseconds(100));
  inject_from(0, PacketType::kControl, Config::kInitialSeq, 0, 0,
              /*urg=*/true);
  // Just long enough for the CONTROL to arrive, shorter than a jiffy so
  // the rate has not regrown.
  run_for(sim::milliseconds(5));
  EXPECT_EQ(snd_->stats().urgent_stops, 1u);
  EXPECT_EQ(snd_->current_rate(), snd_->config().min_rate);
}

TEST_F(SenderTest, WarningControlHalvesRate) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(200 * 1024);
  run_for(sim::milliseconds(500));
  const auto before = snd_->current_rate();
  inject_from(0, PacketType::kControl, Config::kInitialSeq, before / 4);
  run_for(sim::milliseconds(50));
  EXPECT_LE(snd_->current_rate(), before / 2);
  EXPECT_EQ(snd_->stats().rate_requests_received, 1u);
}

TEST_F(SenderTest, KeepalivesBackOffExponentially) {
  make_sender(Config{});
  offer(1024);
  snd_->close();
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  inject_from(0, PacketType::kUpdate, Config::kInitialSeq + 1024);
  run_for(sim::seconds(20));
  const auto kas = snd_->stats().keepalives_sent;
  EXPECT_GT(kas, 2u);
  // Exponential backoff to the 2 s cap: in 20 idle seconds there must be
  // far fewer keepalives than 20s / 20ms initial period.
  EXPECT_LT(kas, 30u);
  run_for(sim::seconds(4));
  // Still ticking at the cap (2 s).
  EXPECT_GE(snd_->stats().keepalives_sent, kas + 1);
}

TEST_F(SenderTest, FinKeepaliveAfterCloseOnEmptyQueue) {
  make_sender(Config{});
  offer(1024);
  run_for(sim::seconds(2));  // transmit everything first
  snd_->close();
  run_for(sim::seconds(1));
  auto kas = tap_[0].of_type(PacketType::kKeepalive);
  ASSERT_GE(kas.size(), 1u);
  EXPECT_TRUE(kas.back().fin);
  EXPECT_EQ(kas.back().seq, Config::kInitialSeq + 1024);
}

TEST_F(SenderTest, LastDataPacketCarriesFin) {
  make_sender(Config{});
  offer(2048);
  snd_->close();  // before transmission: FIN rides the final DATA packet
  run_for(sim::seconds(2));
  auto data = tap_[0].of_type(PacketType::kData);
  ASSERT_GE(data.size(), 2u);
  EXPECT_FALSE(data.front().fin);
  EXPECT_TRUE(data.back().fin);
}

TEST_F(SenderTest, OnWritableFiresAfterRelease) {
  Config cfg;
  cfg.sndbuf = 4 * 1024;
  cfg.mss = 1024;
  make_sender(cfg);
  bool fired = false;
  snd_->on_writable = [&] { fired = true; };
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(4 * 1024);
  EXPECT_EQ(snd_->free_space(), 0u);
  run_for(sim::milliseconds(300));
  inject_from(0, PacketType::kUpdate, Config::kInitialSeq + 4 * 1024);
  run_for(sim::seconds(2));
  EXPECT_TRUE(fired);
  EXPECT_GT(snd_->free_space(), 0u);
}

TEST_F(SenderTest, RateAdvertisedInDataHeaders) {
  make_sender(Config{});
  offer(1024);
  run_for(sim::seconds(1));
  auto data = tap_[0].of_type(PacketType::kData);
  ASSERT_GE(data.size(), 1u);
  EXPECT_GE(data[0].rate, snd_->config().min_rate);
}

TEST_F(SenderTest, TriesFieldCountsAttempts) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(1024);
  run_for(sim::seconds(1));
  inject_from(0, PacketType::kNak, Config::kInitialSeq,
              Config::kInitialSeq, 1024);
  run_for(sim::milliseconds(200));
  auto data = tap_[0].of_type(PacketType::kData);
  ASSERT_GE(data.size(), 2u);
  EXPECT_EQ(data.front().tries, 1);
  EXPECT_EQ(data.back().tries, 2);
}

TEST_F(SenderTest, SolicitedResponseClearsProbeAndSamplesRtt) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(1024);
  snd_->close();
  // Wait for the sender to probe receiver 0 (no update ever arrives).
  run_for(sim::seconds(1));
  const McMember* m = snd_->members().find(topo_->receiver(0).addr());
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->probe_pending);
  const sim::SimTime srtt_before = snd_->srtt();
  // Solicited (URG-marked) UPDATE: answers the probe and is timed.
  auto skb = kern::SkBuff::alloc(0, Header::kSize + 44);
  Header h;
  h.sport = kPort;
  h.dport = kPort;
  h.seq = Config::kInitialSeq + 1024;
  h.tries = 1;
  h.type = PacketType::kUpdate;
  h.urg = true;
  write_header(*skb, h);
  skb->daddr = topo_->sender().addr();
  skb->protocol = kIpProtoHrmc;
  topo_->receiver(0).send(std::move(skb));
  run_for(sim::milliseconds(50));
  EXPECT_FALSE(m->probe_pending);
  EXPECT_NE(snd_->srtt(), srtt_before);  // a sample was taken
}

TEST_F(SenderTest, UnsolicitedUpdateClearsProbeWithoutSampling) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(1024);
  snd_->close();
  run_for(sim::seconds(1));
  const McMember* m = snd_->members().find(topo_->receiver(0).addr());
  ASSERT_NE(m, nullptr);
  ASSERT_TRUE(m->probe_pending);
  const sim::SimTime srtt_before = snd_->srtt();
  // A periodic (unmarked) UPDATE confirming everything: probe resolved
  // but NOT timed — it may have crossed the probe in flight.
  inject_from(0, PacketType::kUpdate, Config::kInitialSeq + 1024);
  run_for(sim::milliseconds(50));
  EXPECT_FALSE(m->probe_pending);
  EXPECT_EQ(snd_->srtt(), srtt_before);  // no sample
}

TEST_F(SenderTest, ProbeBookkeepingSurvivesSequenceWrap) {
  // Regression: probe_seq == 0 doubled as "no probe outstanding", so a
  // probe for a release gate that lands exactly on sequence 0 (after
  // the 2^32 wrap) never counted as outstanding and the lacking member
  // could not be declared dead — the window stalled forever. The
  // explicit probe_pending flag decouples the two.
  Config cfg;
  cfg.initial_seq = static_cast<kern::Seq>(0) - 2000;  // wrap mid-stream
  cfg.mss = 1000;
  cfg.eviction_policy = EvictionPolicy::kEvict;
  make_sender(cfg);
  inject_from(0, PacketType::kJoin, cfg.initial_seq);
  run_for(sim::milliseconds(50));
  // Acknowledge the first packet only, then go silent: the release gate
  // sticks at the head [-1000, 0), so every probe carries seq 0.
  inject_from(0, PacketType::kUpdate, static_cast<kern::Seq>(0) - 1000);
  offer(3000);
  snd_->close();
  run_for(sim::seconds(30));

  // Probes at gate 0 were actually sent...
  bool probed_at_zero = false;
  for (const Header& h : tap_[0].of_type(PacketType::kProbe)) {
    probed_at_zero |= h.seq == 0;
  }
  EXPECT_TRUE(probed_at_zero);
  // ...their re-probes counted, and the silent member was evicted,
  // which unblocks the window and lets the sender finish.
  EXPECT_GT(snd_->stats().probe_retries, 0u);
  EXPECT_EQ(snd_->stats().members_evicted, 1u);
  EXPECT_TRUE(snd_->finished());
}

TEST_F(SenderTest, MemberIsDeadAfterMemberTimeoutOfSilenceAndJoinRestartsIt) {
  // Both receivers JOIN, then never answer a probe. Receiver 1 JOINs
  // again at 4.9 s. Each is dead once kMemberTimeout has passed since
  // the sender last heard from it, with its probe outstanding all along.
  Config cfg;
  cfg.eviction_policy = EvictionPolicy::kEvict;
  make_sender(cfg);
  const net::Addr a0 = topo_->receiver(0).addr();
  const net::Addr a1 = topo_->receiver(1).addr();
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  inject_from(1, PacketType::kJoin, Config::kInitialSeq);
  offer(1024);
  snd_->close();
  run_for(sim::milliseconds(50));
  const McMember* m0 = snd_->members().find(a0);
  ASSERT_NE(m0, nullptr);
  const sim::SimTime joined = m0->last_heard;
  EXPECT_GT(joined, 0);  // the JOIN itself is news from the member

  // The second JOIN names the stream head, which no sent packet holds,
  // so it gives no RTT sample and leaves the release hold alone.
  sched_.run_until(sim::milliseconds(4900));
  inject_from(1, PacketType::kJoin, snd_->snd_nxt());
  run_for(sim::milliseconds(50));
  const McMember* m1 = snd_->members().find(a1);
  ASSERT_NE(m1, nullptr);
  const sim::SimTime rejoined = m1->last_heard;
  EXPECT_GT(rejoined, sim::milliseconds(4900));

  // Just under the bound: both are kept, probes still outstanding.
  sched_.run_until(joined + kMemberTimeout - kern::kJiffy);
  ASSERT_NE(snd_->members().find(a0), nullptr);
  EXPECT_TRUE(snd_->members().find(a0)->probe_pending);
  EXPECT_EQ(snd_->stats().members_evicted, 0u);

  // Just over it: receiver 0 is evicted. Receiver 1's clock restarted
  // at its second JOIN, so it stays.
  sched_.run_until(joined + kMemberTimeout + 2 * kern::kJiffy);
  EXPECT_EQ(snd_->members().find(a0), nullptr);
  ASSERT_NE(snd_->members().find(a1), nullptr);
  EXPECT_TRUE(snd_->members().find(a1)->probe_pending);
  EXPECT_EQ(snd_->stats().members_evicted, 1u);
  EXPECT_FALSE(snd_->finished());

  sched_.run_until(rejoined + kMemberTimeout - kern::kJiffy);
  EXPECT_NE(snd_->members().find(a1), nullptr);
  sched_.run_until(rejoined + kMemberTimeout + 2 * kern::kJiffy);
  EXPECT_EQ(snd_->members().find(a1), nullptr);
  EXPECT_EQ(snd_->stats().members_evicted, 2u);
  EXPECT_TRUE(snd_->finished());
}

TEST_F(SenderTest, NakAcrossSequenceWrapRetransmitsNamedRecordsInOrder) {
  // The retransmitter walks the send window for a NAK's records. Across
  // the 2^32 wrap the modular compare must still pick exactly the
  // records the range overlaps, lowest first.
  Config cfg;
  cfg.initial_seq = static_cast<kern::Seq>(0) - 2500;
  cfg.mss = 1000;
  make_sender(cfg);
  inject_from(0, PacketType::kJoin, cfg.initial_seq);
  offer(5000);  // records start at -2500, -1500, -500 (spans 0), 500, 1500
  run_for(sim::seconds(1));
  ASSERT_EQ(tap_[0].of_type(PacketType::kData).size(), 5u);

  // NAK [-1200, 700): it overlaps the second, third and fourth records.
  const kern::Seq from = static_cast<kern::Seq>(0) - 1200;
  inject_from(0, PacketType::kNak, cfg.initial_seq + 1000, from, 1900);
  run_for(sim::milliseconds(200));

  const std::vector<Header> data = tap_[0].of_type(PacketType::kData);
  std::vector<kern::Seq> resent;
  for (std::size_t i = 5; i < data.size(); ++i) resent.push_back(data[i].seq);
  const std::vector<kern::Seq> want = {static_cast<kern::Seq>(0) - 1500,
                                       static_cast<kern::Seq>(0) - 500, 500};
  EXPECT_EQ(resent, want);
  EXPECT_EQ(snd_->stats().retransmissions, 3u);
}

TEST_F(SenderTest, UnknownFeedbackSenderIsAdopted) {
  make_sender(Config{});
  // UPDATE from a receiver whose JOIN never arrived: adopted as member.
  // It claims a position ahead of anything sent, so its next_expected is
  // clamped to snd_nxt — feedback cannot confirm bytes that don't exist.
  inject_from(1, PacketType::kUpdate, Config::kInitialSeq + 100);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(snd_->members().size(), 1u);
  const McMember* m = snd_->members().find(topo_->receiver(1).addr());
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->next_expected, snd_->snd_nxt());
  EXPECT_EQ(snd_->stats().feedback_clamped, 1u);
}

// --- Inbound NAK validation (chaos hardening) -------------------------
//
// A NAK is attacker-adjacent input: a corrupted or replayed range must
// be dropped and counted, never acted on. NAK_ERR stays reserved for
// genuine RMC-semantics gaps (request for data legitimately released).

TEST_F(SenderTest, NakBeyondHighestSentIsDroppedAndCounted) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(4096);
  run_for(sim::seconds(1));  // everything offered is on the wire
  const kern::Seq sent = snd_->snd_sent();
  // Range starts past the highest byte ever sent: no transmission this
  // could be a loss signal for. Retransmitting it would send garbage.
  inject_from(0, PacketType::kNak, Config::kInitialSeq, sent + 1000, 1460);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(snd_->stats().naks_invalid, 1u);
  EXPECT_EQ(snd_->stats().retransmissions, 0u);
  EXPECT_EQ(snd_->stats().nak_errs_sent, 0u);
}

TEST_F(SenderTest, NakRangeEndBeyondHighestSentIsDroppedAndCounted) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(4096);
  run_for(sim::seconds(1));
  const kern::Seq sent = snd_->snd_sent();
  // Starts inside the sent range but claims a gap running past it.
  inject_from(0, PacketType::kNak, Config::kInitialSeq, sent - 100,
              2000);
  run_for(sim::milliseconds(50));
  EXPECT_EQ(snd_->stats().naks_invalid, 1u);
  EXPECT_EQ(snd_->stats().retransmissions, 0u);
}

TEST_F(SenderTest, EmptyAndAbsurdNakRangesAreDropped) {
  make_sender(Config{});
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(4096);
  run_for(sim::seconds(1));
  inject_from(0, PacketType::kNak, Config::kInitialSeq,
              Config::kInitialSeq, 0);  // zero-length gap
  inject_from(0, PacketType::kNak, Config::kInitialSeq,
              Config::kInitialSeq, 0xC0000000u);  // > 2^30: wrapped junk
  run_for(sim::milliseconds(50));
  EXPECT_EQ(snd_->stats().naks_invalid, 2u);
  EXPECT_EQ(snd_->stats().retransmissions, 0u);
}

TEST_F(SenderTest, StaleNakForConfirmedDataIsDroppedNotErrored) {
  Config cfg;
  cfg.minbuf_rtts = 1;  // quick release for the test
  make_sender(cfg);
  inject_from(0, PacketType::kJoin, Config::kInitialSeq);
  offer(2048);
  snd_->close();
  run_for(sim::seconds(1));
  // The member confirms everything; the window releases fully.
  inject_from(0, PacketType::kUpdate, snd_->snd_nxt());
  run_for(sim::seconds(5));
  ASSERT_TRUE(snd_->finished());
  // A duplicate NAK for data this very member already confirmed (a
  // reordered leftover, not an RMC reliability gap): dropped and
  // counted — answering NAK_ERR would make the receiver declare a
  // bogus stream error.
  inject_from(0, PacketType::kNak, snd_->snd_nxt(), Config::kInitialSeq,
              1000);
  run_for(sim::milliseconds(100));
  EXPECT_EQ(snd_->stats().naks_stale, 1u);
  EXPECT_EQ(snd_->stats().nak_errs_sent, 0u);
  EXPECT_TRUE(tap_[0].of_type(PacketType::kNakErr).empty());
}

}  // namespace
}  // namespace hrmc::proto
