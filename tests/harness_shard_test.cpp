// Differential battery for sharded execution: the same scenario run on
// the ShardEngine at 1, 2 and 4 worker threads must be bit-identical —
// same final stats, same merged trace records, same PRNG end-state,
// same event count. The 1-thread execution is the serial reference;
// any thread-count-dependent divergence is a determinism bug in the
// engine's barrier or mailbox protocol.
//
// Coverage: 23 generator-built chaos scenarios (crashes, flaps,
// partitions, burst loss, disturbances, trunk flaps, wireless fades,
// churn, hierarchy — whatever the seeds draw) plus hand-built cells for
// a repairer kill mid-stream, a membership-churn plan, adaptive FEC
// under burst loss and memory pressure (budget, squeeze and alloc-fail
// windows). A table of scenarios then checks that the serial and the
// sharded engine agree on the protocol outcome.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "harness/thread_budget.hpp"

namespace hrmc::harness {
namespace {

constexpr std::uint64_t kBatterySeedBase = 20260808000ULL;
constexpr int kBatterySpecs = 23;

void expect_identical(const RunResult& want, const RunResult& have,
                      unsigned threads) {
  SCOPED_TRACE(testing::Message() << "threads=" << threads);

  // Replay identity: these four pin the whole schedule.
  EXPECT_EQ(want.events_executed, have.events_executed);
  EXPECT_EQ(want.rng_digest, have.rng_digest);
  EXPECT_EQ(want.sched_compactions, have.sched_compactions);
  EXPECT_EQ(want.shard_epochs, have.shard_epochs);

  // Engine accounting.
  EXPECT_EQ(want.shard_domains, have.shard_domains);
  EXPECT_EQ(want.shard_handoffs, have.shard_handoffs);
  EXPECT_EQ(want.shard_handoff_bytes, have.shard_handoff_bytes);
  EXPECT_EQ(want.shard_control_posts, have.shard_control_posts);

  // Outcome.
  EXPECT_EQ(want.completed, have.completed);
  EXPECT_EQ(want.sender_finished, have.sender_finished);
  EXPECT_EQ(want.elapsed, have.elapsed);
  EXPECT_EQ(want.verify_ok, have.verify_ok);
  EXPECT_EQ(want.any_stream_error, have.any_stream_error);
  EXPECT_EQ(want.survivor_count, have.survivor_count);
  EXPECT_EQ(want.survivors_completed, have.survivors_completed);
  EXPECT_EQ(want.evicted_count, have.evicted_count);
  EXPECT_EQ(want.stall_time, have.stall_time);
  EXPECT_EQ(want.modeled_leaves, have.modeled_leaves);
  EXPECT_EQ(want.mem_peak_bytes, have.mem_peak_bytes);
  EXPECT_EQ(want.mem_alloc_fails, have.mem_alloc_fails);

  // Sender counters.
  EXPECT_EQ(want.sender.data_packets_sent, have.sender.data_packets_sent);
  EXPECT_EQ(want.sender.data_bytes_sent, have.sender.data_bytes_sent);
  EXPECT_EQ(want.sender.retransmissions, have.sender.retransmissions);
  EXPECT_EQ(want.sender.retrans_bytes, have.sender.retrans_bytes);
  EXPECT_EQ(want.sender.keepalives_sent, have.sender.keepalives_sent);
  EXPECT_EQ(want.sender.probes_sent, have.sender.probes_sent);
  EXPECT_EQ(want.sender.naks_received, have.sender.naks_received);
  EXPECT_EQ(want.sender.rate_requests_received,
            have.sender.rate_requests_received);
  EXPECT_EQ(want.sender.updates_received, have.sender.updates_received);
  EXPECT_EQ(want.sender.agg_updates_received,
            have.sender.agg_updates_received);
  EXPECT_EQ(want.sender.joins_received, have.sender.joins_received);
  EXPECT_EQ(want.sender.leaves_received, have.sender.leaves_received);
  EXPECT_EQ(want.sender.members_evicted, have.sender.members_evicted);
  EXPECT_EQ(want.sender.window_stall_time, have.sender.window_stall_time);
  EXPECT_EQ(want.sender.fec_packets_sent, have.sender.fec_packets_sent);
  EXPECT_EQ(want.sender.fec_parity_bytes, have.sender.fec_parity_bytes);
  EXPECT_EQ(want.sender.fec_parity_rate, have.sender.fec_parity_rate);
  EXPECT_EQ(want.sender.fec_rate_increases, have.sender.fec_rate_increases);
  EXPECT_EQ(want.sender.fec_rate_decreases, have.sender.fec_rate_decreases);

  // Per-receiver counters, every slot.
  ASSERT_EQ(want.per_receiver.size(), have.per_receiver.size());
  for (std::size_t i = 0; i < want.per_receiver.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "receiver=" << i);
    const auto& w = want.per_receiver[i];
    const auto& h = have.per_receiver[i];
    EXPECT_EQ(w.data_packets_received, h.data_packets_received);
    EXPECT_EQ(w.data_bytes_received, h.data_bytes_received);
    EXPECT_EQ(w.duplicate_packets, h.duplicate_packets);
    EXPECT_EQ(w.out_of_order_packets, h.out_of_order_packets);
    EXPECT_EQ(w.naks_sent, h.naks_sent);
    EXPECT_EQ(w.naks_suppressed, h.naks_suppressed);
    EXPECT_EQ(w.naks_peer_suppressed, h.naks_peer_suppressed);
    EXPECT_EQ(w.naks_forwarded, h.naks_forwarded);
    EXPECT_EQ(w.updates_sent, h.updates_sent);
    EXPECT_EQ(w.agg_updates_sent, h.agg_updates_sent);
    EXPECT_EQ(w.repairs_served, h.repairs_served);
    EXPECT_EQ(w.repair_failovers, h.repair_failovers);
    EXPECT_EQ(w.bytes_delivered, h.bytes_delivered);
    EXPECT_EQ(w.stall_rejoins, h.stall_rejoins);
  }

  // Merged trace streams, byte for byte (TraceRecord is packed 32-byte
  // POD, so memcmp sees every field).
  EXPECT_EQ(want.trace_dropped, have.trace_dropped);
  ASSERT_EQ(want.trace_records.size(), have.trace_records.size());
  if (!want.trace_records.empty()) {
    EXPECT_EQ(std::memcmp(want.trace_records.data(),
                          have.trace_records.data(),
                          want.trace_records.size() *
                              sizeof(trace::TraceRecord)),
              0);
  }
}

/// Runs `sc` sharded at 1/2/4 threads and checks bit-identity (and
/// that the engine actually sharded: >1 domain when the topology has
/// any group to split off).
RunResult run_battery_cell(Scenario sc) {
  sc.shard.enabled = true;
  sc.shard.threads = 1;
  const RunResult serial = run_transfer(sc);
  EXPECT_EQ(serial.shard_domains, sc.topo.groups.size() + 1);
  for (unsigned threads : {2u, 4u}) {
    sc.shard.threads = threads;
    expect_identical(serial, run_transfer(sc), threads);
  }
  return serial;
}

TEST(ShardDifferential, ChaosBatteryIsThreadCountInvariant) {
  for (int k = 0; k < kBatterySpecs; ++k) {
    const ChaosSpec spec = generate_spec(kBatterySeedBase + k);
    SCOPED_TRACE(testing::Message() << "spec seed " << spec.seed);
    Scenario sc = to_scenario(spec);
    const RunResult serial = run_battery_cell(sc);
    // The reliability oracle must hold under sharded execution too —
    // identical replay is worthless if the run it replays is broken.
    const ChaosVerdict v = judge_result(spec, serial);
    EXPECT_TRUE(v.ok) << v.failure;
  }
}

TEST(ShardDifferential, RepairerKillMidStream) {
  // Hierarchy on; the group-0 repairer (its first receiver) crashes
  // mid-transfer and restarts later, exercising child failover to the
  // sender and the repairer's resync — all of it across the trunk
  // boundary between domain 0 and the group domains.
  Workload wl;
  wl.file_bytes = 384 * 1024;
  Scenario sc = test_case_scenario(4, 12, 10e6, 256u << 10, wl, 20260808);
  sc.name = "shard-repairer-kill";
  sc.hierarchy.enabled = true;
  sc.proto.eviction_policy = proto::EvictionPolicy::kStall;
  sc.faults.crash(0, sim::seconds(2)).restart(0, sim::seconds(6));
  sc.trace.enabled = true;
  sc.time_limit = sim::seconds(600);
  const RunResult serial = run_battery_cell(sc);
  EXPECT_TRUE(serial.sender_finished);
  EXPECT_GT(serial.shard_handoffs, 0u);
}

TEST(ShardDifferential, MembershipChurnMidStream) {
  // A clean leave and a late join while the stream runs: the leave
  // prunes the backbone graft through a barrier control post, the late
  // join re-grafts — the zero-latency cross-domain edge the mailbox
  // protocol quantizes to epoch boundaries.
  Workload wl;
  wl.file_bytes = 256 * 1024;
  Scenario sc = test_case_scenario(5, 10, 10e6, 256u << 10, wl, 20260809);
  sc.name = "shard-churn";
  sc.churn.push_back({sim::seconds(1), 3, false});  // clean leave
  sc.churn.push_back({sim::seconds(2), 7, true});   // late join
  sc.trace.enabled = true;
  sc.time_limit = sim::seconds(600);
  const RunResult serial = run_battery_cell(sc);
  EXPECT_TRUE(serial.sender_finished);
  EXPECT_GT(serial.shard_control_posts, 0u);
}

TEST(ShardDifferential, AdaptiveFecUnderBurstLoss) {
  // Adaptive RS-FEC on, hierarchy on, Gilbert–Elliott burst loss on the
  // group-0 router: parity encode at the sender (domain 0), RS decode +
  // kFecRepair/kFecDecodeFail tracing at the receivers (group domains),
  // and the per-epoch rate adaptation must all be bit-identical at any
  // worker count — the codec and the adaptation law draw no RNG and
  // read no wall clock.
  Workload wl;
  wl.file_bytes = 384 * 1024;
  Scenario sc = test_case_scenario(4, 12, 10e6, 256u << 10, wl, 20260810);
  sc.name = "shard-adaptive-fec";
  sc.hierarchy.enabled = true;
  sc.proto.fec_group = 8;
  sc.proto.fec_parity_min = 1;
  sc.proto.fec_parity_max = 4;
  sc.proto.fec_adapt_interval = sim::milliseconds(100);
  net::GilbertElliottConfig ge;
  ge.p_good_bad = 0.01;
  ge.p_bad_good = 0.2;
  ge.loss_good = 0.005;
  ge.loss_bad = 1.0;
  sc.faults.burst_loss(0, 0, ge);
  sc.trace.enabled = true;
  sc.time_limit = sim::seconds(600);
  const RunResult serial = run_battery_cell(sc);
  EXPECT_TRUE(serial.sender_finished);
  EXPECT_GT(serial.sender.fec_packets_sent, 0u);
}

TEST(ShardDifferential, MemoryPressureIsThreadCountInvariant) {
  // A per-host budget plus a squeeze window and an alloc-fail window:
  // one accountant per domain, every mem window reaching every domain's
  // injector, and each domain's Bernoulli stream must replay identically
  // at any worker count.
  Workload wl;
  wl.file_bytes = 384 * 1024;
  Scenario sc = test_case_scenario(4, 12, 10e6, 256u << 10, wl, 20260811);
  sc.name = "shard-mem-pressure";
  sc.hierarchy.enabled = true;
  sc.mem_budget = 192 * 1024;
  sc.faults.mem_pressure(0, sim::seconds(1), 0.6)
      .mem_pressure_stop(0, sim::seconds(2))
      .alloc_fail(1, sim::milliseconds(1500), 0.05)
      .alloc_fail_stop(1, sim::milliseconds(2500));
  sc.trace.enabled = true;
  sc.time_limit = sim::seconds(600);
  const RunResult serial = run_battery_cell(sc);
  EXPECT_TRUE(serial.completed);
  EXPECT_GT(serial.mem_alloc_fails, 0u);
  EXPECT_LE(serial.mem_peak_bytes, sc.mem_budget);
}

TEST(ShardDifferential, LegacyAndShardedAgreeOnOutcome) {
  // Both engines run one scenario wiring, and the sharded schedule may
  // differ from the serial one only in same-timestamp cross-domain
  // interleaving — so every Scenario field must mean the same on both,
  // and the protocol outcome must agree even where bit-identity isn't
  // defined.
  struct Row {
    const char* name;
    Scenario sc;
  };
  std::vector<Row> rows;
  Workload wl;
  wl.file_bytes = 128 * 1024;
  rows.push_back({"test4", test_case_scenario(4, 8, 10e6, 256u << 10, wl,
                                              31337)});
  // A late joiner is never elected repairer: its group-mates would JOIN
  // a socket that does not exist yet and fail over to the sender.
  wl.file_bytes = 256 * 1024;
  Scenario late = test_case_scenario(1, 4, 10e6, 256u << 10, wl, 7);
  late.hierarchy.enabled = true;
  late.churn.push_back({sim::milliseconds(300), 0, true});
  rows.push_back({"late-joiner", late});
  // The per-host memory budget binds on both engines.
  wl.file_bytes = 2 * 1024 * 1024;
  Scenario budget = test_case_scenario(4, 10, 100e6, 256u << 10, wl, 11);
  budget.mem_budget = 96 * 1024;
  rows.push_back({"mem-budget", budget});

  for (Row& row : rows) {
    SCOPED_TRACE(row.name);
    const RunResult serial = run_transfer(row.sc);
    row.sc.shard.enabled = true;
    row.sc.shard.threads = 2;
    const RunResult sharded = run_transfer(row.sc);
    EXPECT_EQ(serial.shard_domains, 0u);  // the serial engine has none
    for (const RunResult* r : {&serial, &sharded}) {
      EXPECT_TRUE(r->completed);
      EXPECT_TRUE(r->sender_finished);
      EXPECT_TRUE(r->verify_ok);
      EXPECT_EQ(r->receivers_total.repair_failovers, 0u);
      if (row.sc.mem_budget > 0) {
        EXPECT_GT(r->mem_alloc_fails, 0u);
        EXPECT_LE(r->mem_peak_bytes, row.sc.mem_budget);
      }
    }
    // A late joiner's tail starts wherever the stream is when its JOIN
    // lands, so only fixed memberships deliver the same byte count.
    if (row.sc.churn.empty()) {
      EXPECT_EQ(serial.receivers_total.bytes_delivered,
                sharded.receivers_total.bytes_delivered);
    }
  }
}

TEST(ShardDifferential, SamplerIsRejectedUnderSharding) {
  Workload wl;
  wl.file_bytes = 64 * 1024;
  Scenario sc = lan_scenario(2, 10e6, 256u << 10, wl, 1);
  sc.trace.enabled = true;
  sc.trace.sample_period = sim::milliseconds(10);
  sc.shard.enabled = true;
  EXPECT_THROW(run_transfer(sc), std::invalid_argument);
}

TEST(ThreadBudget, ExplicitLeaseIsGrantedExactly) {
  ThreadLease a(4);
  EXPECT_EQ(a.count(), 4u);
  ThreadLease b(7);
  EXPECT_EQ(b.count(), 7u);
}

TEST(ThreadBudget, LeftoverShareFloorsAtOne) {
  // Claim the whole budget explicitly; a flexible lease must still be
  // granted one thread so progress is always possible.
  ThreadLease hog(thread_budget());
  ThreadLease flexible(0);
  EXPECT_EQ(flexible.count(), 1u);
}

TEST(ThreadBudget, LeftoverShareSplitsTheBudget) {
  const unsigned budget = thread_budget();
  ThreadLease all(0);
  EXPECT_EQ(all.count(), budget);
  ThreadLease rest(0);
  EXPECT_EQ(rest.count(), 1u);  // nothing left over while `all` lives
}

}  // namespace
}  // namespace hrmc::harness
