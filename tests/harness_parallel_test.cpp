#include "harness/parallel.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "harness/scenario.hpp"
#include "same_counters.hpp"

namespace hrmc::harness {
namespace {

// Small, fast cells: 256 KB transfers over a 100 Mbps LAN finish in a
// few tens of milliseconds of simulated time each.
std::vector<Scenario> small_cells() {
  std::vector<Scenario> cells;
  for (int n = 1; n <= 3; ++n) {
    for (std::uint64_t seed : {7u, 8u, 9u}) {
      Workload wl;
      wl.file_bytes = 256 * 1024;
      cells.push_back(lan_scenario(n, 100e6, 256 << 10, wl, seed));
    }
  }
  return cells;
}

TEST(ParallelRunner, MatchesSerialExecutionBitForBit) {
  const std::vector<Scenario> cells = small_cells();
  std::vector<RunResult> serial;
  serial.reserve(cells.size());
  for (const Scenario& sc : cells) serial.push_back(run_transfer(sc));

  ParallelRunner pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  const std::vector<RunResult> par = pool.run_all(cells);

  ASSERT_EQ(par.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    EXPECT_EQ(serial[i].completed, par[i].completed);
    EXPECT_EQ(serial[i].verify_ok, par[i].verify_ok);
    EXPECT_EQ(serial[i].elapsed, par[i].elapsed);
    EXPECT_EQ(serial[i].throughput_mbps, par[i].throughput_mbps);  // bit-exact
    EXPECT_EQ(serial[i].events_executed, par[i].events_executed);
    EXPECT_EQ(serial[i].rng_digest, par[i].rng_digest);
    expect_same_counters(serial[i], par[i]);
  }
}

TEST(ParallelRunner, ResultsComeBackInInputOrder) {
  // Cells with distinct receiver counts produce distinct per_receiver
  // sizes; order in the output must match the input regardless of
  // which worker finished first.
  std::vector<Scenario> cells;
  for (int n = 1; n <= 4; ++n) {
    Workload wl;
    wl.file_bytes = 128 * 1024;
    cells.push_back(lan_scenario(n, 100e6, 256 << 10, wl, 42));
  }
  const std::vector<RunResult> results = ParallelRunner(3).run_all(cells);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].per_receiver.size(), i + 1);
  }
}

TEST(ParallelRunner, SerialFallbackForSingleThread) {
  ParallelRunner one(1);
  EXPECT_EQ(one.threads(), 1u);
  Workload wl;
  wl.file_bytes = 128 * 1024;
  const std::vector<Scenario> cells{lan_scenario(1, 100e6, 256 << 10, wl, 3)};
  const std::vector<RunResult> results = one.run_all(cells);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].completed);
}

TEST(ParallelRunner, EnvOverrideSelectsThreadCount) {
  ::setenv("HRMC_BENCH_THREADS", "2", 1);
  EXPECT_EQ(ParallelRunner().threads(), 2u);
  ::setenv("HRMC_BENCH_THREADS", "0", 1);  // invalid -> fall through
  EXPECT_GE(ParallelRunner().threads(), 1u);
  ::unsetenv("HRMC_BENCH_THREADS");
  EXPECT_GE(ParallelRunner().threads(), 1u);
}

TEST(ParallelRunner, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(ParallelRunner(4).run_all({}).empty());
}

}  // namespace
}  // namespace hrmc::harness
