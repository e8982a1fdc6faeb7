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
// windows). A table of scenarios, and the chaos oracle over pinned
// generator seeds, then check that the serial and the sharded engine
// agree on the protocol outcome.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "harness/chaos.hpp"
#include "harness/scenario.hpp"
#include "same_counters.hpp"

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
  EXPECT_EQ(want.modeled_leaves, have.modeled_leaves);
  EXPECT_EQ(want.mem_peak_bytes, have.mem_peak_bytes);
  EXPECT_EQ(want.mem_alloc_fails, have.mem_alloc_fails);

  // Every protocol and network counter, whole structs.
  expect_same_counters(want, have);
  EXPECT_EQ(want.sender_nic_tx_queued, have.sender_nic_tx_queued);
  EXPECT_EQ(want.receiver_nics_tx_queued, have.receiver_nics_tx_queued);
  EXPECT_EQ(want.sender_nic_rx_held, have.sender_nic_rx_held);
  EXPECT_EQ(want.receiver_nics_rx_held, have.receiver_nics_rx_held);
  EXPECT_EQ(want.sender_host_rx_in_cpu, have.sender_host_rx_in_cpu);
  EXPECT_EQ(want.sender_host_tx_in_cpu, have.sender_host_tx_in_cpu);
  EXPECT_EQ(want.receiver_hosts_rx_in_cpu, have.receiver_hosts_rx_in_cpu);
  EXPECT_EQ(want.receiver_hosts_tx_in_cpu, have.receiver_hosts_tx_in_cpu);

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

TEST(ShardDifferential, OracleAgreesAcrossEngines) {
  // The chaos oracle on the sharded engine: every generated spec, and
  // every memory-pressure spec, must earn the same verdict there as on
  // the serial engine. Stats may differ (same-timestamp events in
  // different domains interleave differently), the outcome may not.
  const auto check = [](const ChaosSpec& spec, const char* kind) {
    SCOPED_TRACE(testing::Message() << kind << " seed " << spec.seed);
    Scenario sc = to_scenario(spec);
    const RunResult serial = run_transfer(sc);
    sc.shard.enabled = true;
    sc.shard.threads = 2;
    const RunResult sharded = run_transfer(sc);
    const ChaosVerdict want = judge_result(spec, serial);
    const ChaosVerdict have = judge_result(spec, sharded);
    EXPECT_TRUE(have.ok) << have.failure;
    EXPECT_EQ(want.ok, have.ok) << want.failure;
    EXPECT_EQ(serial.survivors_completed, sharded.survivors_completed);
    EXPECT_EQ(serial.verify_ok, sharded.verify_ok);
  };
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    check(generate_spec(seed), "chaos");
  }
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    check(generate_mem_spec(seed), "mem");
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

TEST(ShardDifferential, SamplesAreThreadCountInvariantAndScheduleNoEvents) {
  // Samples are taken at epoch barriers, where every domain is
  // quiescent: identical at every thread count, one per period tick,
  // and the sampled run executes exactly the unsampled run's events.
  Workload wl;
  wl.file_bytes = 512 * 1024;
  Scenario sc = lan_scenario(2, 10e6, 256u << 10, wl, 1);
  sc.topo.groups.push_back(net::group_b(2));
  sc.trace.enabled = true;
  sc.shard.enabled = true;
  sc.shard.threads = 1;
  const RunResult plain = run_transfer(sc);
  const sim::SimTime period = sim::milliseconds(10);
  sc.trace.sample_period = period;
  const RunResult one = run_transfer(sc);
  sc.shard.threads = 2;
  const RunResult two = run_transfer(sc);

  ASSERT_TRUE(one.completed);
  EXPECT_TRUE(plain.samples.empty());
  EXPECT_EQ(one.events_executed, plain.events_executed);
  EXPECT_EQ(one.rng_digest, plain.rng_digest);
  expect_identical(one, two, 2);
  EXPECT_EQ(one.samples, two.samples);
  ASSERT_GT(one.samples.size(), 1u);
  for (std::size_t k = 0; k < one.samples.size(); ++k) {
    EXPECT_EQ(one.samples[k].t, static_cast<sim::SimTime>(k) * period);
  }
  bool nonzero_rate = false;
  for (const SamplePoint& p : one.samples) nonzero_rate |= p.rate_bps > 0;
  EXPECT_TRUE(nonzero_rate);
}

}  // namespace
}  // namespace hrmc::harness
