// Figure 16: simulation study on a 100 Mbps network, 10 receivers.
//   (a) throughput for Tests 1-5   (b) rate-reduce requests
// Expected shape: same ordering as Figure 15 (Test 1 > 2 > 3, the mixes
// near Test 3), but with markedly more rate requests than at 10 Mbps:
// the network got 10x faster while the application read rate did not,
// so receive windows run full (§5.2 of the paper).
#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

/// Runs the 25 cells (buffer sizes x Tests 1-5) once.
std::vector<RunResult> run_cells(Sweep& sweep) {
  std::vector<Scenario> cells;
  for (std::size_t buf : buffer_sweep()) {
    for (int tc = 1; tc <= 5; ++tc) {
      Workload wl;
      wl.file_bytes = 10 * kMiB;
      wl.sink_read_rate_bps = kSimAppReadBps;
      Scenario sc = test_case_scenario(tc, 10, 100e6, buf, wl,
                                       kBenchSeed + tc);
      sc.time_limit = sim::seconds(3600);
      cells.push_back(std::move(sc));
    }
  }
  return sweep.run(cells);
}

}  // namespace

int main() {
  banner("Figure 16: H-RMC on a 100 Mbps network (simulated)",
         "10 MB transfer, 10 receivers, Fig-14 mixes; application reads\n"
         "at the same fixed rate as in the 10 Mbps study");
  Sweep sweep("fig16");
  // Both panels read the same runs.
  const std::vector<RunResult> results = run_cells(sweep);
  print_test_case_panel("(a) throughput (Mbps)", results, false);
  print_test_case_panel("(b) rate reduce requests (count)", results, true);
  return 0;
}
