// Figure 11: feedback activity (rate requests and NAKs arriving at the
// sender) during the 10 Mbps disk-to-disk tests of Figure 10.
// Expected shape: rate requests fall as the kernel buffer grows (fewer
// excursions into the warning/critical regions); NAK counts stay small
// and buffer-insensitive; the 40 MB runs are noisier (I/O stalls).
//
// The printed tables are the paper's per-test totals. On top of that,
// one traced cell per file size runs with time-series sampling on, so
// BENCH_fig11.json carries the actual feedback-over-time curves
// (rate_requests_per_interval, naks_per_interval, recv_region, ...) —
// the panel the paper plots, not just its integral.
#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

Scenario cell(std::uint64_t file_bytes, std::size_t buf, int n) {
  Workload wl;
  wl.file_bytes = file_bytes;
  wl.disk_source = true;
  wl.disk_sink = true;
  return lan_scenario(n, 10e6, buf, wl,
                      kBenchSeed + static_cast<std::uint64_t>(n));
}

void panels(Sweep& sweep, const char* title, std::uint64_t file_bytes) {
  std::vector<Scenario> cells;
  for (std::size_t buf : buffer_sweep()) {
    for (int n = 1; n <= 3; ++n) cells.push_back(cell(file_bytes, buf, n));
  }
  const std::vector<RunResult> results = sweep.run(cells);

  for (bool rate_requests : {true, false}) {
    std::cout << title << (rate_requests ? " rate requests" : " NAKs")
              << '\n';
    Table t({"buffer", "1 receiver", "2 receivers", "3 receivers"});
    std::size_t i = 0;
    for (std::size_t buf : buffer_sweep()) {
      std::vector<std::string> row{buf_label(buf)};
      for (int n = 1; n <= 3; ++n) {
        const RunResult& r = results[i++];
        const std::uint64_t v = rate_requests
                                    ? r.sender.rate_requests_received
                                    : r.sender.naks_received;
        row.push_back(std::to_string(v));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
    std::cout << '\n';
  }
}

}  // namespace

int main() {
  banner("Figure 11: feedback activity, 10 Mbps disk-to-disk (counts)",
         "total NAKs / rate requests arriving at the sender per test");
  Sweep sweep("fig11");
  panels(sweep, "(a/b) 10 MB,", 10 * kMiB);
  panels(sweep, "(c/d) 40 MB,", 40 * kMiB);

  // Feedback-over-time curves for the smallest-buffer, 3-receiver cell
  // of each file size — the configuration with the most feedback
  // traffic, hence the most interesting curve.
  traced_cell(sweep, "traced_10MB_64K_3rcv", cell(10 * kMiB, 64 * 1024, 3));
  traced_cell(sweep, "traced_40MB_64K_3rcv", cell(40 * kMiB, 64 * 1024, 3));
  return 0;
}
