#include "harness/scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "harness/table.hpp"

namespace hrmc::harness {
namespace {

TEST(ScenarioBuilders, LanScenarioShape) {
  Workload wl;
  Scenario sc = lan_scenario(3, 100e6, 512 << 10, wl, 9);
  ASSERT_EQ(sc.topo.groups.size(), 1u);
  EXPECT_EQ(sc.topo.groups[0].receivers, 3);
  EXPECT_EQ(sc.topo.groups[0].label, "A");
  EXPECT_DOUBLE_EQ(sc.topo.network_bps, 100e6);
  EXPECT_EQ(sc.proto.sndbuf, 512u << 10);
  EXPECT_EQ(sc.proto.rcvbuf, 512u << 10);
}

TEST(ScenarioBuilders, TestCasesMatchFig14b) {
  Workload wl;
  // Test 1: all A. Test 2: all B. Test 3: all C.
  EXPECT_EQ(test_case_scenario(1, 10, 10e6, 64 << 10, wl, 1)
                .topo.groups[0].label,
            "A");
  EXPECT_EQ(test_case_scenario(2, 10, 10e6, 64 << 10, wl, 1)
                .topo.groups[0].label,
            "B");
  EXPECT_EQ(test_case_scenario(3, 10, 10e6, 64 << 10, wl, 1)
                .topo.groups[0].label,
            "C");
  // Test 4: 80% B, 20% C.
  Scenario t4 = test_case_scenario(4, 10, 10e6, 64 << 10, wl, 1);
  ASSERT_EQ(t4.topo.groups.size(), 2u);
  EXPECT_EQ(t4.topo.groups[0].receivers, 8);
  EXPECT_EQ(t4.topo.groups[1].receivers, 2);
  // Test 5: 20% B, 80% C.
  Scenario t5 = test_case_scenario(5, 10, 10e6, 64 << 10, wl, 1);
  EXPECT_EQ(t5.topo.groups[0].receivers, 2);
  EXPECT_EQ(t5.topo.groups[1].receivers, 8);
  EXPECT_THROW(test_case_scenario(6, 10, 10e6, 64 << 10, wl, 1),
               std::invalid_argument);
}

TEST(ScenarioBuilders, BufferSweeps) {
  EXPECT_EQ(buffer_sweep().size(), 5u);
  EXPECT_EQ(buffer_sweep().front(), 64u << 10);
  EXPECT_EQ(buffer_sweep().back(), 1024u << 10);
  EXPECT_EQ(buffer_sweep_extended().back(), 4096u << 10);
  EXPECT_EQ(buf_label(256 << 10), "256K");
}

TEST(RunResult, CompleteInfoPercent) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.complete_info_pct(), 100.0);  // no decisions yet
  r.sender.release_decisions = 200;
  r.sender.releases_with_complete_info = 50;
  EXPECT_DOUBLE_EQ(r.complete_info_pct(), 25.0);
}

TEST(Table, PrintsAlignedColumns) {
  Table t({"buffer", "Mbps"});
  t.add_row({"64K", "4.75"});
  t.add_row({"1024K", "9.49"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("buffer"), std::string::npos);
  EXPECT_NE(out.find("1024K"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, FormatsDoubles) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
}

TEST(RunTransfer, ReportsPerReceiverStats) {
  Workload wl;
  wl.file_bytes = 64 * 1024;
  Scenario sc = lan_scenario(3, 10e6, 128 << 10, wl, 12);
  RunResult r = run_transfer(sc);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.per_receiver.size(), 3u);
  std::uint64_t sum = 0;
  for (const auto& rs : r.per_receiver) sum += rs.bytes_delivered;
  EXPECT_EQ(sum, r.receivers_total.bytes_delivered);
}

TEST(RunTransfer, TimeLimitProducesIncompleteResult) {
  Workload wl;
  wl.file_bytes = 50 * 1024 * 1024;  // cannot finish in the limit below
  Scenario sc = lan_scenario(1, 10e6, 256 << 10, wl, 13);
  sc.time_limit = sim::milliseconds(500);
  RunResult r = run_transfer(sc);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.throughput_mbps, 0.0);
}

}  // namespace
}  // namespace hrmc::harness
