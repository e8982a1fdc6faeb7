// Figure 15: simulation study on a 10 Mbps network.
//   (a) throughput, Tests 1-5 (Fig 14b receiver mixes), 10 receivers
//   (b) rate-reduce requests for the same runs
//   (c) throughput with 100 receivers
// Expected shape: Test 1 (all LAN) > Test 2 (all MAN) > Test 3 (all
// WAN); Tests 4 and 5 (B/C mixes) land near the WAN case — the protocol
// adapts to the least capable receiver. Rate requests grow with loss
// and shrink with buffer size. 100 receivers costs only a little
// throughput (more updates to process), recovered by bigger buffers.
#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

Scenario cell(int test_case, int receivers, std::size_t buf) {
  Workload wl;
  wl.file_bytes = 10 * kMiB;
  wl.sink_read_rate_bps = kSimAppReadBps;
  Scenario sc = test_case_scenario(test_case, receivers, 10e6, buf, wl,
                                   kBenchSeed + test_case);
  sc.time_limit = sim::seconds(3600);
  return sc;
}

/// Runs the 25 cells (buffer sizes x Tests 1-5) with `receivers` each.
std::vector<RunResult> run_cells(Sweep& sweep, int receivers) {
  std::vector<Scenario> cells;
  for (std::size_t buf : buffer_sweep()) {
    for (int tc = 1; tc <= 5; ++tc) cells.push_back(cell(tc, receivers, buf));
  }
  return sweep.run(cells);
}

}  // namespace

int main() {
  banner("Figure 15: H-RMC on a 10 Mbps network (simulated)",
         "10 MB transfer across the Fig-14 receiver mixes");
  Sweep sweep("fig15");
  // Panels (a) and (b) read the same runs.
  const std::vector<RunResult> ten = run_cells(sweep, 10);
  print_test_case_panel("(a) throughput, 10 receivers (Mbps)", ten, false);
  print_test_case_panel("(b) rate reduce requests, 10 receivers (count)",
                        ten, true);
  print_test_case_panel("(c) throughput, 100 receivers (Mbps)",
                        run_cells(sweep, 100), false);
  return 0;
}
