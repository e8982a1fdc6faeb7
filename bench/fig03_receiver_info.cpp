// Figure 3: percentage of buffer-release decisions for which the sender
// already holds complete receiver information, 10 receivers, loss rates
// 0.005% (LAN) / 0.5% (MAN) / 2% (WAN), kernel buffers 64K-1024K.
//   (a) original RMC: feedback only from NAKs and rate requests;
//   (b) H-RMC: periodic UPDATEs added.
// Expected shape: (a) low in low-loss networks and rising with loss
// (more NAKs = more information); (b) near-complete everywhere, further
// helped by larger buffers (data is buffered longer, so updates have
// time to arrive).
#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

Scenario cell(int test_case, std::size_t buf, proto::Mode mode) {
  Workload wl;
  wl.file_bytes = 4 * kMiB;
  wl.sink_read_rate_bps = kSimAppReadBps;
  Scenario sc = test_case_scenario(test_case, 10, 10e6, buf, wl,
                                   kBenchSeed + test_case);
  sc.proto.mode = mode;
  sc.time_limit = sim::seconds(3600);
  return sc;
}

}  // namespace

int main() {
  banner("Figure 3: complete receiver information at buffer release",
         "10 receivers, 10 Mbps, 4 MB transfer; cell = % of release\n"
         "decisions taken with state from every receiver in hand");
  Sweep sweep("fig03");

  // Tests 1-3 (LAN, MAN, WAN) are the columns.
  constexpr proto::Mode kModes[] = {proto::Mode::kRmc, proto::Mode::kHrmc};

  std::vector<Scenario> cells;
  for (proto::Mode mode : kModes) {
    for (std::size_t buf : buffer_sweep()) {
      for (int tc = 1; tc <= 3; ++tc) cells.push_back(cell(tc, buf, mode));
    }
  }
  const std::vector<RunResult> results = sweep.run(cells);

  std::size_t i = 0;
  for (proto::Mode mode : kModes) {
    std::cout << (mode == proto::Mode::kRmc
                      ? "(a) without updates (original RMC)\n"
                      : "(b) with updates (H-RMC)\n");
    Table t({"buffer", "LAN (0.005%)", "MAN (0.5%)", "WAN (2%)"});
    for (std::size_t buf : buffer_sweep()) {
      std::vector<std::string> row{buf_label(buf)};
      for (int tc = 1; tc <= 3; ++tc) {
        row.push_back(fmt(results[i++].complete_info_pct(), 1));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  return 0;
}
