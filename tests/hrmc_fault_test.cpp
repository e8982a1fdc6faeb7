// Fault-injection scenarios: receiver crashes mid-transfer under each
// eviction policy, crash-restart resync, access-link flap, group-router
// partition and heal, and Gilbert–Elliott burst loss — plus the
// determinism contract that the injector never perturbs fault-free RNG
// streams.
#include <gtest/gtest.h>

#include <vector>

#include "harness/scenario.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "same_counters.hpp"

namespace hrmc::harness {
namespace {

Workload small_mem_workload(std::uint64_t bytes = 512 * 1024) {
  Workload wl;
  wl.file_bytes = bytes;
  return wl;
}

/// Three receivers on a clean LAN; receiver 2 crashes half a second in,
/// while the transfer is still running.
Scenario crash_scenario(proto::EvictionPolicy policy, std::uint64_t seed) {
  Workload wl = small_mem_workload(2 * 1024 * 1024);
  Scenario sc = lan_scenario(3, 10e6, 256 << 10, wl, seed);
  sc.topo.groups[0].loss_rate = 0.0;
  sc.proto.eviction_policy = policy;
  sc.time_limit = sim::seconds(60);
  sc.faults.crash(2, sim::milliseconds(500));
  return sc;
}

TEST(Fault, CrashUnderEvictCompletesForSurvivors) {
  Scenario sc = crash_scenario(proto::EvictionPolicy::kEvict, 60);
  RunResult r = run_transfer(sc);
  // The dead member is evicted, the window unblocks, and both
  // survivors get the whole file.
  EXPECT_TRUE(r.sender_finished);
  EXPECT_EQ(r.survivor_count, 2);
  EXPECT_EQ(r.survivors_completed, 2);
  EXPECT_EQ(r.sender.members_evicted, 1u);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.completed);  // the crashed receiver never finished
  EXPECT_GT(r.sender.probe_retries, 0u);
  // The stall is bounded by the member timeout, not the time limit:
  // well under the 60 s budget.
  EXPECT_LT(r.sender.window_stall_time, sim::seconds(30));
}

TEST(Fault, CrashUnderStallStallsForever) {
  Scenario sc = crash_scenario(proto::EvictionPolicy::kStall, 61);
  sc.time_limit = sim::seconds(30);
  RunResult r = run_transfer(sc);
  // Paper-faithful behavior: the window never releases past the dead
  // member's position, so the sender cannot finish.
  EXPECT_FALSE(r.sender_finished);
  EXPECT_EQ(r.sender.members_evicted, 0u);
  // The stall consumed essentially the whole run after the crash. It
  // was still open at the time limit, so this also shows stop() folding
  // the open interval into the harvested stats (SenderTest.StopFolds-
  // OpenStall checks the counter against the accessor exactly).
  EXPECT_GT(r.sender.window_stall_time, sim::seconds(10));
}

TEST(Fault, CrashUnderRmcFallbackCompletes) {
  Scenario sc = crash_scenario(proto::EvictionPolicy::kRmcFallback, 62);
  RunResult r = run_transfer(sc);
  // The head releases once every lacking member is dead; the member
  // stays in the table (late NAKs would earn NAK_ERR, like RMC).
  EXPECT_TRUE(r.sender_finished);
  EXPECT_EQ(r.survivors_completed, 2);
  EXPECT_EQ(r.sender.members_evicted, 0u);
  EXPECT_GT(r.sender.dead_member_releases, 0u);
  EXPECT_TRUE(r.verify_ok);
}

/// Time of the first `kind` record in a traced run; -1 when none.
sim::SimTime first_record(const RunResult& r, trace::EventKind kind) {
  for (const trace::TraceRecord& rec : r.trace_records) {
    if (rec.kind == kind) return rec.t;
  }
  return -1;
}

TEST(Fault, EvictAtDefaultsKeepsLiveMembers) {
  // Probes queue behind the sender's own tx ring, so a live member can
  // leave several probes unanswered; only 5 s of silence makes it dead.
  // The one crash at 0.5 s is the only death: no live member is evicted
  // or released past before it.
  Scenario sc = crash_scenario(proto::EvictionPolicy::kEvict, 1);
  sc.trace.enabled = true;
  const RunResult evict = run_transfer(sc);
  EXPECT_EQ(evict.sender.members_evicted, 1u);
  EXPECT_GT(first_record(evict, trace::EventKind::kEvict),
            sim::milliseconds(500));
  EXPECT_EQ(evict.survivor_count, 2);
  EXPECT_EQ(evict.survivors_completed, 2);

  sc.proto.eviction_policy = proto::EvictionPolicy::kRmcFallback;
  const RunResult fallback = run_transfer(sc);
  EXPECT_GT(first_record(fallback, trace::EventKind::kDeadRelease),
            sim::milliseconds(500));
  EXPECT_EQ(fallback.survivors_completed, 2);
}

TEST(Fault, CrashRestartRejoinsAndResyncs) {
  Workload wl = small_mem_workload(2 * 1024 * 1024);
  Scenario sc = lan_scenario(2, 10e6, 256 << 10, wl, 63);
  sc.topo.groups[0].loss_rate = 0.0;
  sc.proto.eviction_policy = proto::EvictionPolicy::kEvict;
  sc.time_limit = sim::seconds(60);
  sc.faults.crash(1, sim::milliseconds(500))
      .restart(1, sim::milliseconds(1500));
  RunResult r = run_transfer(sc);
  // The restarted receiver re-JOINed with the resync mark and was
  // re-anchored at the sender's current position; from there it
  // completes the tail of the stream like a late joiner.
  EXPECT_GE(r.sender.resync_joins_received, 1u);
  EXPECT_TRUE(r.sender_finished);
  EXPECT_EQ(r.survivor_count, 2);
  EXPECT_EQ(r.survivors_completed, 2);
}

TEST(Fault, LinkFlapRecovers) {
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(2, 10e6, 256 << 10, wl, 64);
  sc.topo.groups[0].loss_rate = 0.0;
  sc.time_limit = sim::seconds(60);
  sc.faults.link_down(1, sim::milliseconds(300))
      .link_up(1, sim::milliseconds(800));
  RunResult r = run_transfer(sc);
  // Everything lost during the outage is NAKed and retransmitted.
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GT(r.sender.retransmissions, 0u);
}

TEST(Fault, PartitionHealRecovers) {
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(2, 10e6, 256 << 10, wl, 65);
  sc.topo.groups[0].loss_rate = 0.0;
  sc.time_limit = sim::seconds(60);
  sc.faults.partition(0, sim::milliseconds(300))
      .heal(0, sim::seconds(1));
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
}

TEST(Fault, GilbertElliottBurstLossRecovers) {
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(2, 10e6, 128 << 10, wl, 66);
  sc.topo.groups[0].loss_rate = 0.0;  // all loss comes from the GE model
  sc.time_limit = sim::seconds(120);
  net::GilbertElliottConfig ge;
  ge.p_good_bad = 0.01;
  ge.p_bad_good = 0.30;
  ge.loss_bad = 0.8;
  sc.faults.burst_loss(0, 0, ge);
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_GT(r.receivers_total.naks_sent, 0u);
  EXPECT_GT(r.sender.retransmissions, 0u);
}

TEST(Fault, GeZeroLossDoesNotPerturb) {
  // The determinism contract: a plan whose GE model never drops (both
  // state loss probabilities zero) must leave the run bit-identical to
  // a plan-free run — the injector and its substreams add no draws to
  // any pre-existing RNG stream.
  Workload wl = small_mem_workload();
  Scenario base = lan_scenario(2, 10e6, 128 << 10, wl, 67);
  base.topo.groups[0].loss_rate = 0.005;  // exercise the Bernoulli stream

  Scenario with_ge = base;
  net::GilbertElliottConfig ge;
  ge.p_good_bad = 0.5;
  ge.p_bad_good = 0.5;
  ge.loss_good = 0.0;
  ge.loss_bad = 0.0;
  with_ge.faults.burst_loss(0, 0, ge);

  RunResult a = run_transfer(base);
  RunResult b = run_transfer(with_ge);
  EXPECT_EQ(a.elapsed, b.elapsed);
  expect_same_counters(a, b);
}

TEST(Fault, OutOfRangeTargetRejectedAtArmTime) {
  // A typo'd index in the plan must be a configuration error, not an
  // abort from deep inside the event loop mid-run.
  Workload wl = small_mem_workload(64 * 1024);
  Scenario sc = lan_scenario(2, 10e6, 128 << 10, wl, 69);
  sc.faults.crash(99, sim::milliseconds(100));
  EXPECT_THROW(run_transfer(sc), std::invalid_argument);

  Scenario sc2 = lan_scenario(2, 10e6, 128 << 10, wl, 69);
  sc2.faults.partition(7, sim::milliseconds(100));
  EXPECT_THROW(run_transfer(sc2), std::invalid_argument);
}

TEST(Fault, EmptyPlanMatchesNoPlan) {
  // An untouched Scenario carries an empty plan; make sure the two
  // construction paths (no injector vs. none armed) agree by value.
  Workload wl = small_mem_workload(256 * 1024);
  Scenario sc = lan_scenario(1, 10e6, 128 << 10, wl, 68);
  sc.topo.groups[0].loss_rate = 0.01;
  RunResult a = run_transfer(sc);
  RunResult b = run_transfer(sc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.rng_digest, b.rng_digest);
  expect_same_counters(a, b);
}

// --- Event-ordering edge cases (chaos hardening) ----------------------
//
// Equal-time events fire in plan order (the scheduler breaks timestamp
// ties FIFO), and state-transition events are idempotent: a duplicate
// crash / restart / heal is a no-op — no counter, no trace mark, no
// protocol callback. Both contracts are what make generated and shrunk
// chaos plans well-defined.

struct InjectorRig {
  sim::Scheduler sched;
  net::Topology topo;
  explicit InjectorRig(int receivers = 2)
      : topo(sched, [&] {
          net::TopologyConfig tcfg;
          tcfg.seed = 11;
          tcfg.groups = {net::group_a(receivers)};
          return tcfg;
        }()) {}
};

TEST(Fault, PartitionThenHealAtSameInstantEndsHealed) {
  InjectorRig rig;
  net::FaultPlan plan;
  plan.partition(0, sim::milliseconds(100)).heal(0, sim::milliseconds(100));
  net::FaultInjector inj(rig.sched, rig.topo, plan, 9);
  inj.arm();
  rig.sched.run_until(sim::milliseconds(200));
  EXPECT_EQ(inj.count(net::FaultKind::kPartition), 1u);
  EXPECT_EQ(inj.count(net::FaultKind::kHeal), 1u);
  EXPECT_FALSE(rig.topo.group_router(0).is_down());
}

TEST(Fault, HealThenPartitionAtSameInstantEndsPartitioned) {
  // Reversed plan order at the same timestamp: the heal fires first
  // against an unpartitioned router (a no-op), then the partition
  // applies. FIFO tie-break makes the outcome a function of the plan,
  // not of hash order.
  InjectorRig rig;
  net::FaultPlan plan;
  plan.heal(0, sim::milliseconds(100)).partition(0, sim::milliseconds(100));
  net::FaultInjector inj(rig.sched, rig.topo, plan, 9);
  inj.arm();
  rig.sched.run_until(sim::milliseconds(200));
  EXPECT_EQ(inj.count(net::FaultKind::kHeal), 0u);  // no-op: nothing to heal
  EXPECT_EQ(inj.count(net::FaultKind::kPartition), 1u);
  EXPECT_TRUE(rig.topo.group_router(0).is_down());
}

TEST(Fault, DuplicateCrashAndRestartAreIdempotent) {
  InjectorRig rig;
  net::FaultPlan plan;
  plan.crash(0, sim::milliseconds(100))
      .crash(0, sim::milliseconds(110))
      .restart(0, sim::milliseconds(120))
      .restart(0, sim::milliseconds(130));
  net::FaultInjector inj(rig.sched, rig.topo, plan, 9);
  int crash_calls = 0;
  int restart_calls = 0;
  inj.on_receiver_crash = [&](std::size_t) { ++crash_calls; };
  inj.on_receiver_restart = [&](std::size_t) { ++restart_calls; };
  inj.arm();
  rig.sched.run_until(sim::milliseconds(200));
  // One real transition each way; the duplicates were no-ops all the
  // way down — counters, protocol callbacks, and host state agree.
  EXPECT_EQ(inj.count(net::FaultKind::kReceiverCrash), 1u);
  EXPECT_EQ(inj.count(net::FaultKind::kReceiverRestart), 1u);
  EXPECT_EQ(crash_calls, 1);
  EXPECT_EQ(restart_calls, 1);
  EXPECT_FALSE(rig.topo.receiver(0).is_down());
}

TEST(Fault, DuplicateLinkEventsAreIdempotent) {
  InjectorRig rig;
  net::FaultPlan plan;
  plan.link_down(1, sim::milliseconds(100))
      .link_down(1, sim::milliseconds(110))
      .link_up(1, sim::milliseconds(120))
      .link_up(1, sim::milliseconds(130));
  net::FaultInjector inj(rig.sched, rig.topo, plan, 9);
  inj.arm();
  rig.sched.run_until(sim::milliseconds(200));
  EXPECT_EQ(inj.count(net::FaultKind::kLinkDown), 1u);
  EXPECT_EQ(inj.count(net::FaultKind::kLinkUp), 1u);
  EXPECT_TRUE(rig.topo.receiver_nic(1).link_up());
}

TEST(Fault, OverlappingCrashRestartPairsCompleteAndVerify) {
  // Chaos seed 337 (found by the sweep): two crash/restart pairs for
  // the same receiver interleaved — crash, crash, restart, restart.
  // The redundant restart used to emit a bare "up" trace mark with no
  // resync behind it, re-arming the receiver in the release-safety
  // checker and flagging a perfectly legal release. Idempotent
  // transitions keep the trace truthful.
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(3, 10e6, 256 << 10, wl, 90);
  sc.topo.groups[0].loss_rate = 0.0;
  sc.time_limit = sim::seconds(60);
  sc.faults.crash(1, sim::milliseconds(163))
      .crash(1, sim::milliseconds(171))
      .restart(1, sim::milliseconds(187))
      .restart(1, sim::milliseconds(228));
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.sender_finished);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_EQ(r.survivor_count, 3);
  EXPECT_EQ(r.survivors_completed, 3);
}

TEST(Fault, DuplicateTrunkEventsAreIdempotentAndReconverge) {
  // Double downs and double ups collapse to one transition each, and
  // the repair black-holes the router for the reconvergence window.
  InjectorRig rig;
  net::FaultPlan plan;
  plan.trunk_down(0, sim::milliseconds(100))
      .trunk_down(0, sim::milliseconds(110))
      .trunk_up(0, sim::milliseconds(200), sim::milliseconds(30))
      .trunk_up(0, sim::milliseconds(210));
  net::FaultInjector inj(rig.sched, rig.topo, plan, 9);
  inj.arm();
  rig.sched.run_until(sim::milliseconds(150));
  EXPECT_TRUE(rig.topo.group_router(0).is_down());
  rig.sched.run_until(sim::milliseconds(220));
  EXPECT_FALSE(rig.topo.group_router(0).is_down());
  EXPECT_TRUE(rig.topo.group_router(0).reconverging());  // until 230 ms
  rig.sched.run_until(sim::milliseconds(240));
  EXPECT_FALSE(rig.topo.group_router(0).reconverging());
  EXPECT_EQ(inj.count(net::FaultKind::kTrunkDown), 1u);
  EXPECT_EQ(inj.count(net::FaultKind::kTrunkUp), 1u);
}

TEST(Fault, WirelessWindowInstallsPerNicModelsAndStopClears) {
  // One wireless window arms every NIC behind the target group with its
  // own model — distinct SNR phases so the links do not fade in
  // lockstep — and the stop event removes them all.
  InjectorRig rig(3);
  net::WirelessLossConfig wl;
  wl.p_good_bad = 0.05;
  wl.snr_depth = 0.8;
  wl.snr_period = sim::seconds(1);
  net::FaultPlan plan;
  plan.wireless(0, sim::milliseconds(100), wl)
      .wireless_stop(0, sim::milliseconds(300));
  net::FaultInjector inj(rig.sched, rig.topo, plan, 9);
  inj.arm();

  rig.sched.run_until(sim::milliseconds(150));
  ASSERT_EQ(rig.topo.receiver_count(), 3u);
  std::vector<double> probs;
  for (std::size_t i = 0; i < 3; ++i) {
    const net::WirelessLoss* m = rig.topo.receiver_nic(i).wireless_loss();
    ASSERT_NE(m, nullptr) << "nic " << i;
    probs.push_back(m->entry_probability(sim::milliseconds(250)));
  }
  EXPECT_NE(probs[0], probs[1]);  // phase-offset decorrelation
  EXPECT_NE(probs[1], probs[2]);
  EXPECT_EQ(inj.count(net::FaultKind::kWirelessStart), 1u);

  rig.sched.run_until(sim::milliseconds(350));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.topo.receiver_nic(i).wireless_loss(), nullptr) << i;
  }
  EXPECT_EQ(inj.count(net::FaultKind::kWirelessStop), 1u);
}

}  // namespace
}  // namespace hrmc::harness
