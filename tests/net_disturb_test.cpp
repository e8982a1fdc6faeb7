// Adversarial disturbance kinds (chaos engine): reordering, duplication,
// bit corruption, control-plane-only loss, and delay jitter injected at
// the group router, end to end through the protocol. Each test pins the
// reliability contract: delivery is exact-once and in order no matter
// what the network re-sequences, clones, or mangles.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "same_counters.hpp"

namespace hrmc::harness {
namespace {

Scenario clean_lan(int receivers, std::uint64_t seed,
                   std::uint64_t bytes = 512 * 1024) {
  Workload wl;
  wl.file_bytes = bytes;
  Scenario sc = lan_scenario(receivers, 10e6, 256 << 10, wl, seed);
  sc.topo.groups[0].loss_rate = 0.0;  // disturbances are the only adversity
  sc.time_limit = sim::seconds(60);
  return sc;
}

TEST(Disturb, ReorderPreservesDelivery) {
  Scenario sc = clean_lan(2, 81);
  sc.faults.reorder(0, sim::milliseconds(20), 0.3, sim::milliseconds(3))
      .reorder_stop(0, sim::milliseconds(600));
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  // The shuffle was real: receivers buffered out-of-order arrivals.
  EXPECT_GT(r.receivers_total.out_of_order_packets, 0u);
}

TEST(Disturb, DuplicationNeverDoubleDelivers) {
  Scenario sc = clean_lan(2, 82);
  sc.faults.duplicate(0, sim::milliseconds(20), 0.3)
      .duplicate_stop(0, sim::milliseconds(600));
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  // Clones arrived and were discarded as duplicates...
  EXPECT_GT(r.receivers_total.duplicate_packets, 0u);
  // ...and the application saw each byte exactly once.
  for (const auto& rs : r.per_receiver) {
    EXPECT_EQ(rs.bytes_delivered, sc.workload.file_bytes);
  }
}

TEST(Disturb, CorruptionAlwaysCaughtByChecksumAndCounted) {
  Scenario sc = clean_lan(2, 83);
  sc.faults.corrupt(0, sim::milliseconds(20), 0.15)
      .corrupt_stop(0, sim::milliseconds(600));
  RunResult r = run_transfer(sc);
  // A flipped bit is a lost packet, never a delivered wrong byte: the
  // checksum rejects it at the endpoint, the NAK path refetches it, and
  // the verified pattern check proves nothing mangled got through.
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GT(r.receivers_total.bad_packets + r.sender.bad_packets, 0u);
  EXPECT_GT(r.sender.retransmissions, 0u);
}

TEST(Disturb, ControlPlaneLossRecovers) {
  // Only control packets (JOIN/NAK/UPDATE/PROBE/...) are dropped; DATA
  // flows untouched. The protocol must survive a long window of nearly
  // blind feedback and finish once the control plane heals.
  Scenario sc = clean_lan(2, 84);
  sc.faults.control_loss(0, sim::milliseconds(20), 0.8)
      .control_loss_stop(0, sim::milliseconds(800));
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
}

TEST(Disturb, JitterPreservesCorrectness) {
  Scenario sc = clean_lan(2, 85);
  sc.faults.jitter(0, sim::milliseconds(20), sim::milliseconds(4))
      .jitter_stop(0, sim::milliseconds(600));
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
}

TEST(Disturb, AllDisturbancesTogetherStillDeliver) {
  Scenario sc = clean_lan(3, 86);
  sc.faults.reorder(0, sim::milliseconds(20), 0.2, sim::milliseconds(2))
      .duplicate(0, sim::milliseconds(30), 0.2)
      .corrupt(0, sim::milliseconds(40), 0.05)
      .jitter(0, sim::milliseconds(50), sim::milliseconds(2))
      .reorder_stop(0, sim::milliseconds(700))
      .duplicate_stop(0, sim::milliseconds(700))
      .corrupt_stop(0, sim::milliseconds(700))
      .jitter_stop(0, sim::milliseconds(700));
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
}

TEST(Disturb, DisturbedRunIsDeterministic) {
  // The disturber draws from its own named substream: the same scenario
  // replays bit-identically, which is what makes chaos repros replay.
  Scenario sc = clean_lan(2, 87, 256 * 1024);
  sc.faults.reorder(0, sim::milliseconds(20), 0.25, sim::milliseconds(3))
      .duplicate(0, sim::milliseconds(30), 0.2)
      .corrupt(0, sim::milliseconds(40), 0.1)
      .reorder_stop(0, sim::milliseconds(500))
      .duplicate_stop(0, sim::milliseconds(500))
      .corrupt_stop(0, sim::milliseconds(500));
  RunResult a = run_transfer(sc);
  RunResult b = run_transfer(sc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.rng_digest, b.rng_digest);
  expect_same_counters(a, b);
}

TEST(Disturb, ZeroProbabilityDisturbDoesNotPerturb) {
  // Determinism contract (like GeZeroLossDoesNotPerturb): installing a
  // disturber whose every probability is zero must leave the run
  // bit-identical to a plan-free one — no draws leak into existing
  // streams, and a zeroed config short-circuits before any draw.
  Scenario base = clean_lan(2, 88, 256 * 1024);
  base.topo.groups[0].loss_rate = 0.005;  // exercise the Bernoulli stream

  Scenario with = base;
  with.faults.reorder(0, 0, 0.0, 0).duplicate(0, 0, 0.0).corrupt(0, 0, 0.0);

  RunResult a = run_transfer(base);
  RunResult b = run_transfer(with);
  EXPECT_EQ(a.elapsed, b.elapsed);
  expect_same_counters(a, b);
}

}  // namespace
}  // namespace hrmc::harness
