// Cross-module integration scenarios: membership churn, stream
// boundaries, sequence wraparound, and protocol lifecycle edge cases
// that no single-module unit test can reach.
#include <gtest/gtest.h>

#include <memory>

#include "app/apps.hpp"
#include "app/pattern.hpp"
#include "harness/scenario.hpp"
#include "hrmc/receiver.hpp"
#include "hrmc/sender.hpp"
#include "net/topology.hpp"

namespace hrmc {
namespace {

constexpr net::Addr kGroup = net::make_addr(224, 3, 2, 1);
constexpr net::Port kPort = 7500;

struct Session {
  explicit Session(int receivers, proto::Config cfg = {},
                   double loss = 0.0, std::uint64_t seed = 1234)
      : cfg_(cfg) {
    net::TopologyConfig tcfg;
    tcfg.seed = seed;
    tcfg.groups = {net::group_a(receivers)};
    tcfg.groups[0].loss_rate = loss;
    topo = std::make_unique<net::Topology>(sched, tcfg);
    snd = std::make_unique<proto::HrmcSender>(
        topo->sender(), cfg_, kPort, net::Endpoint{kGroup, kPort});
  }

  /// Adds a receiver whose application drains and pattern-verifies the
  /// stream as it arrives (verified bytes land in `verified`).
  proto::HrmcReceiver* add_receiver(std::size_t idx) {
    auto r = std::make_unique<proto::HrmcReceiver>(
        topo->receiver(idx), cfg_, net::Endpoint{kGroup, kPort},
        topo->sender().addr());
    proto::HrmcReceiver* rp = r.get();
    const std::size_t slot = verified.size();
    verified.push_back(0);
    ok.push_back(true);
    r->on_readable = [this, rp, slot] {
      std::uint8_t buf[16384];
      std::size_t n;
      while ((n = rp->recv(buf)) > 0) {
        if (app::pattern_verify({buf, n}, verified[slot]) != n) {
          ok[slot] = false;
        }
        verified[slot] += n;
      }
    };
    r->open();
    receivers.push_back(std::move(r));
    return rp;
  }

  /// Writes the whole pattern stream and closes.
  void write_all(std::uint64_t bytes) {
    auto feed = [this, bytes] {
      std::uint8_t buf[16384];
      while (written < bytes) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(sizeof buf, bytes - written));
        app::pattern_fill({buf, want}, written);
        const std::size_t n = snd->send({buf, want});
        written += n;
        if (n < want) return;
      }
      snd->close();
    };
    snd->on_writable = feed;
    feed();
  }

  /// Bytes delivered (and pattern-verified) to receiver slot `i`.
  std::uint64_t delivered(std::size_t i) const {
    EXPECT_TRUE(ok[i]) << "pattern verification failed on receiver " << i;
    return verified[i];
  }

  void run_for(sim::SimTime dt) { sched.run_until(sched.now() + dt); }

  ~Session() {
    snd->stop();
    for (auto& r : receivers) r->stop();
  }

  proto::Config cfg_;
  sim::Scheduler sched;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<proto::HrmcSender> snd;
  std::vector<std::unique_ptr<proto::HrmcReceiver>> receivers;
  std::vector<std::uint64_t> verified;
  std::vector<bool> ok;
  std::uint64_t written = 0;
};

TEST(Integration, ZeroByteStreamCompletes) {
  Session s(1);
  auto* r = s.add_receiver(0);
  s.run_for(sim::milliseconds(100));
  s.snd->close();  // nothing ever written: FIN rides a keepalive
  s.run_for(sim::seconds(2));
  EXPECT_TRUE(s.snd->finished());
  EXPECT_TRUE(r->complete());
  EXPECT_TRUE(r->eof());
  EXPECT_EQ(r->stats().data_packets_received, 0u);
}

TEST(Integration, SingleByteStream) {
  Session s(2);
  auto* r0 = s.add_receiver(0);
  auto* r1 = s.add_receiver(1);
  s.run_for(sim::milliseconds(100));
  s.write_all(1);
  s.sched.run_while([&] { return !s.snd->finished(); }, sim::seconds(30));
  EXPECT_TRUE(s.snd->finished());
  EXPECT_EQ(s.delivered(0), 1u);
  EXPECT_EQ(s.delivered(1), 1u);
  EXPECT_TRUE(r0->complete());
  EXPECT_TRUE(r1->complete());
}

TEST(Integration, SequenceNumbersWrapAround) {
  // Start the stream 64 KB below 2^32; a 256 KB transfer crosses the
  // wrap. Every comparison in the window/reassembly machinery must be
  // modular for this to survive.
  proto::Config cfg;
  cfg.initial_seq = 0xffffffffu - 64 * 1024;
  Session s(2, cfg, /*loss=*/0.01);
  auto* r0 = s.add_receiver(0);
  auto* r1 = s.add_receiver(1);
  s.run_for(sim::milliseconds(100));
  s.write_all(256 * 1024);
  s.sched.run_while([&] { return !s.snd->finished(); }, sim::seconds(120));
  ASSERT_TRUE(s.snd->finished());
  EXPECT_TRUE(r0->complete());
  EXPECT_TRUE(r1->complete());
  EXPECT_EQ(s.delivered(0), 256u * 1024);
  EXPECT_EQ(s.delivered(1), 256u * 1024);
  EXPECT_FALSE(r0->stream_error());
}

TEST(Integration, ReceiverLeavesMidStream) {
  Session s(2);
  auto* r0 = s.add_receiver(0);
  auto* r1 = s.add_receiver(1);
  s.run_for(sim::milliseconds(100));
  s.write_all(512 * 1024);
  s.run_for(sim::milliseconds(300));
  // Receiver 1 walks away. The sender must stop waiting for it.
  r1->close();
  s.sched.run_while([&] { return !s.snd->finished(); }, sim::seconds(120));
  EXPECT_TRUE(s.snd->finished());
  EXPECT_TRUE(r0->complete());
  EXPECT_EQ(s.snd->members().size(), 1u);  // only receiver 0 remains
  EXPECT_EQ(s.snd->stats().leaves_received, 1u);
}

TEST(Integration, LateJoinerRecoversFromBufferedData) {
  // Receiver 1 joins 200 ms into the stream. Everything it missed is
  // still buffered (the buffer is big enough for the whole stream and
  // the MINBUF hold is stretched well past the join time), so it
  // recovers the entire stream via NAKs.
  proto::Config cfg;
  cfg.sndbuf = 2048 << 10;  // keep the whole stream buffered
  cfg.rcvbuf = 2048 << 10;
  cfg.minbuf_rtts = 200;  // hold >= 2 s: nothing releases before the join
  Session s(2, cfg);
  auto* r0 = s.add_receiver(0);
  s.run_for(sim::milliseconds(100));
  s.write_all(512 * 1024);
  s.run_for(sim::milliseconds(200));
  auto* r1 = s.add_receiver(1);  // late
  s.sched.run_while([&] { return !s.snd->finished(); }, sim::seconds(120));
  ASSERT_TRUE(s.snd->finished());
  EXPECT_TRUE(r0->complete());
  EXPECT_TRUE(r1->complete());
  EXPECT_EQ(s.delivered(1), 512u * 1024);
  EXPECT_GT(r1->stats().naks_sent, 0u);  // it had to ask for the past
}

TEST(Integration, SenderWaitsOnSilentReceiver) {
  // One receiver simply stops answering (we stop its timers and detach
  // its transport): the H-RMC sender must NOT finish — that is the
  // reliability guarantee — and keepalives/probes must keep flowing.
  Session s(2);
  auto* r0 = s.add_receiver(0);
  auto* r1 = s.add_receiver(1);
  s.run_for(sim::milliseconds(200));  // both JOINed
  ASSERT_EQ(s.snd->members().size(), 2u);
  // Silence receiver 1.
  r1->stop();
  s.topo->receiver(1).unregister_transport(proto::kIpProtoHrmc);
  s.write_all(128 * 1024);
  s.run_for(sim::seconds(20));
  EXPECT_FALSE(s.snd->finished());
  EXPECT_TRUE(r0->complete());
  EXPECT_GT(s.snd->stats().probes_sent, 0u);
  EXPECT_GT(s.snd->stats().keepalives_sent, 0u);
  (void)r0;
}

TEST(Integration, TwoSequentialTransfersOnFreshSockets) {
  // The same topology hosts two back-to-back sessions (sockets are
  // destroyed and recreated), checking clean teardown/re-registration.
  for (int round = 0; round < 2; ++round) {
    Session s(1, proto::Config{}, 0.0, 555 + round);
    auto* r = s.add_receiver(0);
    s.run_for(sim::milliseconds(100));
    s.write_all(64 * 1024);
    s.sched.run_while([&] { return !s.snd->finished(); }, sim::seconds(60));
    EXPECT_TRUE(s.snd->finished()) << "round " << round;
    EXPECT_EQ(s.delivered(0), 64u * 1024);
    EXPECT_TRUE(r->complete()) << "round " << round;
  }
}

TEST(Integration, UpdatePeriodConvergesInSteadyState) {
  // During a long transfer the dynamic update timer settles into a band
  // where updates mostly pre-empt probes (§3 / §4.3 of the paper).
  Session s(1);
  auto* r = s.add_receiver(0);
  s.run_for(sim::milliseconds(100));
  s.write_all(4 * 1024 * 1024);
  s.sched.run_while([&] { return !s.snd->finished(); }, sim::seconds(120));
  ASSERT_TRUE(s.snd->finished());
  // The period moved off its initial value and stayed within bounds.
  EXPECT_GE(r->update_period(), proto::kUpdatePeriodMin);
  EXPECT_LE(r->update_period(), proto::kUpdatePeriodMax);
  EXPECT_NE(r->update_period(), proto::kUpdatePeriodInit);
}

TEST(Integration, StatsConservation) {
  // Sender-side and receiver-side counters must reconcile on a clean
  // network: every data byte received was sent; updates received equal
  // updates sent; probes received equal probes sent.
  Session s(3);
  auto* r0 = s.add_receiver(0);
  auto* r1 = s.add_receiver(1);
  auto* r2 = s.add_receiver(2);
  s.run_for(sim::milliseconds(100));
  s.write_all(256 * 1024);
  s.sched.run_while([&] { return !s.snd->finished(); }, sim::seconds(120));
  ASSERT_TRUE(s.snd->finished());

  // Quiesce: stop every timer so no new control packets are generated,
  // then let in-flight packets drain before snapshotting the counters.
  s.snd->stop();
  for (auto& r : s.receivers) r->stop();
  s.run_for(sim::seconds(2));

  const auto& ss = s.snd->stats();
  std::uint64_t rcv_updates = 0, rcv_probes = 0;
  for (auto* r : {r0, r1, r2}) {
    rcv_updates += r->stats().updates_sent;
    rcv_probes += r->stats().probes_received;
  }
  EXPECT_EQ(ss.updates_received, rcv_updates);
  // Probes can tail-drop at the sender's own device queue when it is
  // full of data (unchecked control sends — as in the kernel), so
  // received <= sent.
  EXPECT_LE(rcv_probes, ss.probes_sent);
  EXPECT_GT(rcv_probes, 0u);
  // Multicast data: each of the 3 receivers sees every transmission.
  EXPECT_EQ(r0->stats().data_packets_received,
            ss.data_packets_sent + ss.retransmissions);
}

TEST(Integration, FlowControlledBySlowApplication) {
  // A receiver application that drains at 1 Mbit/s on a 10 Mbit/s
  // network must throttle the sender through rate requests without any
  // loss of data.
  net::TopologyConfig tcfg;
  tcfg.seed = 77;
  tcfg.groups = {net::group_a(1)};
  tcfg.groups[0].loss_rate = 0.0;
  sim::Scheduler sched;
  net::Topology topo(sched, tcfg);
  proto::Config cfg;
  cfg.rcvbuf = 64 << 10;
  cfg.sndbuf = 64 << 10;
  proto::HrmcReceiver rcv(topo.receiver(0), cfg,
                          net::Endpoint{kGroup, kPort},
                          topo.sender().addr());
  app::SinkApp::Options so;
  so.read_rate_bps = 1e6;
  app::SinkApp sink(rcv, sched, so);
  rcv.open();
  proto::HrmcSender snd(topo.sender(), cfg, kPort,
                        net::Endpoint{kGroup, kPort});
  app::SourceApp::Options srco;
  srco.total_bytes = 512 * 1024;
  app::SourceApp src(snd, sched, srco);
  sched.schedule_at(sim::milliseconds(100), [&] { src.start(); });
  sched.run_while([&] { return !snd.finished(); }, sim::seconds(60));
  ASSERT_TRUE(snd.finished());
  EXPECT_FALSE(sink.verify_failed());
  EXPECT_GT(rcv.stats().rate_requests_sent, 0u);
  // The transfer ran at roughly the application's pace: 4 Mbit of
  // payload at ~1 Mbit/s is at least ~3.5 s.
  EXPECT_GT(sched.now(), sim::milliseconds(3500));
  snd.stop();
  rcv.stop();
}

}  // namespace
}  // namespace hrmc
