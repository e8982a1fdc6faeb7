// Figure 13: NAK activity in the 100 Mbps memory-to-memory tests, with
// the buffer sweep extended beyond 1024K.
// Expected shape: essentially zero NAKs (and zero rate requests) up to
// 1024K; with multi-megabyte buffers the send window so far exceeds the
// bandwidth-delay product that the sender sustains per-jiffy bursts the
// card cannot cleanly absorb — local tx drops appear and with them NAKs
// (the paper's hypothesis for the same observation on its testbed).
#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

Scenario cell(std::uint64_t file_bytes, std::size_t buf, int n) {
  Workload wl;
  wl.file_bytes = file_bytes;
  wl.sink_read_rate_bps = 0.0;  // always-ready application
  return lan_scenario(n, 100e6, buf, wl,
                      kBenchSeed + static_cast<std::uint64_t>(n));
}

void panel(Sweep& sweep, const char* title, std::uint64_t file_bytes) {
  std::vector<Scenario> cells;
  for (std::size_t buf : buffer_sweep_extended()) {
    for (int n = 1; n <= 3; ++n) cells.push_back(cell(file_bytes, buf, n));
  }
  const std::vector<RunResult> results = sweep.run(cells);

  std::cout << title << '\n';
  Table t({"buffer", "NAKs (1 rcvr)", "NAKs (2)", "NAKs (3)",
           "tx drops (1 rcvr)"});
  std::size_t i = 0;
  for (std::size_t buf : buffer_sweep_extended()) {
    std::vector<std::string> row{buf_label(buf)};
    const std::uint64_t drops_one = results[i].sender_nic.tx_ring_drops;
    for (int n = 1; n <= 3; ++n) {
      row.push_back(std::to_string(results[i++].sender.naks_received));
    }
    row.push_back(std::to_string(drops_one));
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  banner("Figure 13: NAK activity on the 100 Mbps network",
         "memory-to-memory; note the change past 1024K buffers");
  Sweep sweep("fig13");
  panel(sweep, "(a) NAK activity, 10 MB file", 10 * kMiB);
  panel(sweep, "(b) NAK activity, 40 MB file", 40 * kMiB);

  // NAK-over-time curve for the largest-buffer cell — the regime where
  // local tx drops (and hence NAKs) actually appear.
  traced_cell(sweep, "traced_10MB_4096K_1rcv",
              cell(10 * kMiB, 4096 * 1024, 1));
  return 0;
}
