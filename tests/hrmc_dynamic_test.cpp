// End-to-end dynamic-network resilience: trunk-flap trains with route
// reconvergence, wireless fade windows, stalled-receiver re-JOIN, and
// membership churn — plus the chaos engine's soak generator and the
// shrinker's fault-window minimization pass.
#include <gtest/gtest.h>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "same_counters.hpp"

namespace hrmc::harness {
namespace {

Scenario dynamic_scenario(int receivers, std::uint64_t file_bytes,
                          std::uint64_t seed) {
  Workload wl;
  wl.file_bytes = file_bytes;
  Scenario sc = lan_scenario(receivers, 10e6, 256 * 1024, wl, seed);
  sc.time_limit = sim::seconds(60);
  return sc;
}

TEST(DynamicNetwork, TrunkFlapTrainRecovers) {
  // Three full down/up cycles on the group trunk, each repair followed
  // by a reconvergence blackhole. The stream must complete cleanly —
  // flaps cost retransmissions, never correctness.
  Scenario sc = dynamic_scenario(2, 2 * 1024 * 1024, 5);
  sc.faults.trunk_flaps(0, sim::milliseconds(400), sim::seconds(1),
                        sim::milliseconds(200), 3, sim::milliseconds(50));
  const RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_EQ(r.sender.nak_errs_sent, 0u);
}

TEST(DynamicNetwork, ReconvergenceDelaysRecoveryButNotCorrectness) {
  // Identical outage, two repair qualities: an instant repair and one
  // that black-holes for two more seconds while routes reconverge. The
  // slow repair must cost wall-clock time, not data integrity.
  Scenario fast = dynamic_scenario(2, 1024 * 1024, 17);
  fast.faults.trunk_down(0, sim::milliseconds(400))
      .trunk_up(0, sim::milliseconds(900));
  Scenario slow = dynamic_scenario(2, 1024 * 1024, 17);
  slow.faults.trunk_down(0, sim::milliseconds(400))
      .trunk_up(0, sim::milliseconds(900), sim::seconds(2));

  const RunResult rf = run_transfer(fast);
  const RunResult rs = run_transfer(slow);
  ASSERT_TRUE(rf.completed);
  ASSERT_TRUE(rs.completed);
  EXPECT_TRUE(rf.verify_ok);
  EXPECT_TRUE(rs.verify_ok);
  EXPECT_GT(rs.elapsed, rf.elapsed);
}

TEST(DynamicNetwork, WirelessFadeWindowRecovers) {
  // A heavy 802.11-style fade regime over most of the stream: bursty
  // correlated losses the NAK path must grind through.
  Scenario sc = dynamic_scenario(2, 2 * 1024 * 1024, 21);
  net::WirelessLossConfig fade;
  fade.p_good_bad = 0.02;
  fade.mean_burst = 5.0;
  fade.loss_good = 0.01;
  fade.loss_bad = 0.9;
  fade.snr_depth = 0.5;
  fade.snr_period = sim::milliseconds(400);
  sc.faults.wireless(0, sim::milliseconds(300), fade)
      .wireless_stop(0, sim::seconds(2));
  const RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GE(r.receivers_total.naks_sent, 1u);
}

TEST(DynamicNetwork, ZeroLossWirelessWindowDoesNotPerturbTiming) {
  // Determinism contract: installing wireless models that never drop
  // must leave the run bit-identical to one with no fault plan at all —
  // the models draw from their own substreams and touch nothing else.
  Scenario base = dynamic_scenario(2, 512 * 1024, 33);
  Scenario instrumented = dynamic_scenario(2, 512 * 1024, 33);
  net::WirelessLossConfig quiet;  // all-zero loss probabilities
  quiet.p_good_bad = 0.0;
  quiet.loss_good = 0.0;
  quiet.loss_bad = 0.0;
  instrumented.faults.wireless(0, sim::milliseconds(200), quiet)
      .wireless_stop(0, sim::seconds(1));

  const RunResult rb = run_transfer(base);
  const RunResult ri = run_transfer(instrumented);
  ASSERT_TRUE(rb.completed);
  ASSERT_TRUE(ri.completed);
  EXPECT_EQ(rb.elapsed, ri.elapsed);
  expect_same_counters(rb, ri);
}

TEST(DynamicNetwork, StalledReceiverRejoinsAfterPathRepair) {
  // A long trunk outage mid-stream with the stalled-data watchdog
  // armed: receivers notice the silence and re-JOIN; once the path
  // heals (plus reconvergence) a rejoin lands and the stream completes.
  Scenario sc = dynamic_scenario(2, 2 * 1024 * 1024, 9);
  sc.proto.data_stall_timeout = sim::milliseconds(300);
  sc.faults.trunk_down(0, sim::milliseconds(500))
      .trunk_up(0, sim::seconds(3), sim::milliseconds(50));
  const RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_GE(r.receivers_total.stall_rejoins, 1u);
  EXPECT_EQ(r.sender.nak_errs_sent, 0u);
}

TEST(DynamicNetwork, ChurnLateJoinAndCleanLeave) {
  // Receiver 1 joins the running stream at 600 ms (URG resync, tail
  // only); receiver 2 leaves cleanly at 400 ms. Receiver 0 rides
  // through unaffected and the sender finishes for the survivors.
  Scenario sc = dynamic_scenario(3, 2 * 1024 * 1024, 13);
  sc.churn.push_back({sim::milliseconds(600), 1, true});
  sc.churn.push_back({sim::milliseconds(400), 2, false});
  const RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.sender_finished);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GE(r.sender.resync_joins_received, 1u);
  ASSERT_EQ(r.per_receiver.size(), 3u);
  EXPECT_EQ(r.per_receiver[0].bytes_delivered, sc.workload.file_bytes);
  // Late joiner anchored mid-stream: got the tail, not the whole file.
  EXPECT_GT(r.per_receiver[1].bytes_delivered, 0u);
  EXPECT_LT(r.per_receiver[1].bytes_delivered, sc.workload.file_bytes);
  // Leaver departed early and is not counted against completion.
  EXPECT_LT(r.per_receiver[2].bytes_delivered, sc.workload.file_bytes);
}

// --- Chaos engine: soak generator and window shrinking ----------------

TEST(ChaosSoak, SoakSpecsRoundTripExactly) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ChaosSpec spec = generate_soak_spec(seed);
    const std::string text = serialize_spec(spec);
    const auto parsed = parse_spec(text);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    EXPECT_EQ(serialize_spec(*parsed), text) << "seed " << seed;
  }
}

TEST(ChaosSoak, SoakSpecsAreSurvivable) {
  // The soak generator promises survivable-by-construction segments;
  // two full segments through the oracle back that up.
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const ChaosVerdict v = judge(generate_soak_spec(seed));
    EXPECT_TRUE(v.ok) << "seed " << seed << ": " << v.failure;
  }
}

TEST(ChaosShrink, TightensFaultWindowsNotJustEventCount) {
  // An outage that fails only because of its *length*: the pair-drop
  // pass cannot remove it (the fault-free run passes), so the window
  // minimization pass must shorten it instead. 10 Mbps needs ~6.9 s
  // for 8 MiB, so an 11.4 s outage inside a 12 s limit fails, while
  // dropping the outage — or halving it — leaves time to finish.
  ChaosSpec spec;
  spec.seed = 77;
  spec.network_bps = 10e6;
  spec.file_bytes = 8 * 1024 * 1024;
  spec.time_limit = sim::seconds(12);
  spec.eviction = proto::EvictionPolicy::kStall;
  spec.group_kind = {0};
  spec.group_receivers = {2};
  net::FaultPlan plan;
  plan.link_down(1, sim::milliseconds(100))
      .link_up(1, sim::milliseconds(11500));
  spec.faults = plan.events;

  ASSERT_FALSE(judge(spec).ok);
  const ChaosSpec small = shrink(spec);
  // The pair survives (still two events), but the outage window must
  // have been at least halved from the original 11.4 s.
  ASSERT_EQ(small.faults.size(), 2u);
  const sim::SimTime window = small.faults[1].at - small.faults[0].at;
  EXPECT_LE(window, sim::seconds(6));
  EXPECT_GT(window, 0);
  EXPECT_FALSE(judge(small).ok);  // a shrunk repro still reproduces
}

}  // namespace
}  // namespace hrmc::harness
