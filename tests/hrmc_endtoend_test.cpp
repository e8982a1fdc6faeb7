// End-to-end transfers over the simulated internetwork: the core
// correctness property — every receiver reassembles exactly the byte
// stream the sender's application wrote, under loss, heterogeneous
// delay, and buffer pressure.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "same_counters.hpp"

namespace hrmc::harness {
namespace {

Workload small_mem_workload(std::uint64_t bytes = 512 * 1024) {
  Workload wl;
  wl.file_bytes = bytes;
  return wl;
}

TEST(EndToEnd, LosslessLanSingleReceiver) {
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(1, 10e6, 256 << 10, wl, 42);
  sc.topo.groups[0].loss_rate = 0.0;  // perfectly clean network
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.sender_finished);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_EQ(r.receivers_total.bytes_delivered, wl.file_bytes);
  EXPECT_EQ(r.sender.nak_errs_sent, 0u);
  EXPECT_GT(r.throughput_mbps, 0.5);
}

TEST(EndToEnd, LosslessLanThreeReceivers) {
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(3, 10e6, 256 << 10, wl, 43);
  sc.topo.groups[0].loss_rate = 0.0;
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_EQ(r.receivers_total.bytes_delivered, 3 * wl.file_bytes);
}

TEST(EndToEnd, LanWithLossStillReliable) {
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(2, 10e6, 128 << 10, wl, 44);
  sc.topo.groups[0].loss_rate = 0.01;  // 1%: plenty of NAK traffic
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
  EXPECT_GT(r.sender.retransmissions, 0u);
  EXPECT_GT(r.receivers_total.naks_sent, 0u);
}

TEST(EndToEnd, WanHighLossReliable) {
  Workload wl = small_mem_workload(256 * 1024);
  Scenario sc = test_case_scenario(3, 4, 10e6, 128 << 10, wl, 45);
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed) << "WAN transfer did not finish";
  EXPECT_TRUE(r.verify_ok);
  EXPECT_FALSE(r.any_stream_error);
}

TEST(EndToEnd, MixedGroupsReliable) {
  Workload wl = small_mem_workload(256 * 1024);
  Scenario sc = test_case_scenario(4, 5, 10e6, 256 << 10, wl, 46);
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
}

TEST(EndToEnd, TinyBufferStillCompletes) {
  Workload wl = small_mem_workload(256 * 1024);
  Scenario sc = lan_scenario(2, 10e6, 64 << 10, wl, 47);
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
}

TEST(EndToEnd, DiskToDiskTransfer) {
  Workload wl = small_mem_workload(1024 * 1024);
  wl.disk_source = true;
  wl.disk_sink = true;
  Scenario sc = lan_scenario(2, 10e6, 256 << 10, wl, 48);
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
}

TEST(EndToEnd, HundredMbpsNetwork) {
  Workload wl = small_mem_workload(2 * 1024 * 1024);
  wl.sink_read_rate_bps = 64e6;
  Scenario sc = lan_scenario(2, 100e6, 512 << 10, wl, 49);
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  EXPECT_GT(r.throughput_mbps, 2.0);
}

TEST(EndToEnd, RmcModeCompletesOnCleanNetwork) {
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(2, 10e6, 256 << 10, wl, 50);
  sc.proto.mode = proto::Mode::kRmc;
  sc.topo.groups[0].loss_rate = 0.0;
  RunResult r = run_transfer(sc);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verify_ok);
  // RMC sends no updates and no probes (Table 1: H-RMC only).
  EXPECT_EQ(r.receivers_total.updates_sent, 0u);
  EXPECT_EQ(r.sender.probes_sent, 0u);
}

TEST(EndToEnd, HrmcSendsUpdatesAndRmcDoesNot) {
  Workload wl = small_mem_workload();
  Scenario hrmc_sc = lan_scenario(1, 10e6, 256 << 10, wl, 51);
  RunResult hrmc_r = run_transfer(hrmc_sc);
  EXPECT_GT(hrmc_r.receivers_total.updates_sent, 0u);
}

TEST(EndToEnd, ThroughputGrowsWithBufferSize) {
  // The headline qualitative result of Figs 10/12: more kernel buffer,
  // more throughput, saturating at large sizes.
  Workload wl = small_mem_workload(4 * 1024 * 1024);
  Scenario small = lan_scenario(1, 100e6, 64 << 10, wl, 52);
  Scenario large = lan_scenario(1, 100e6, 1024 << 10, wl, 52);
  RunResult rs = run_transfer(small);
  RunResult rl = run_transfer(large);
  ASSERT_TRUE(rs.completed);
  ASSERT_TRUE(rl.completed);
  EXPECT_GT(rl.throughput_mbps, rs.throughput_mbps * 1.5)
      << "64K: " << rs.throughput_mbps << " Mbps, 1024K: "
      << rl.throughput_mbps << " Mbps";
}

TEST(EndToEnd, DeterministicAcrossRuns) {
  Workload wl = small_mem_workload();
  Scenario sc = lan_scenario(2, 10e6, 128 << 10, wl, 53);
  sc.topo.groups[0].loss_rate = 0.005;
  RunResult a = run_transfer(sc);
  RunResult b = run_transfer(sc);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.rng_digest, b.rng_digest);
  expect_same_counters(a, b);
}

}  // namespace
}  // namespace hrmc::harness
