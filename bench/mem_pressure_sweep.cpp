// Memory-pressure robustness sweep (DESIGN.md §16): goodput as the
// per-host memory budget tightens from unlimited to starved, plus one
// shrinker-squeeze window and one GFP_ATOMIC-style alloc-failure
// window at a generous budget.
//
// The scenario is the FEC bench's 4-receiver 10 Mbps LAN with 20 ms
// paths (BDP ~50 KB, so budgets below ~64 KB genuinely throttle the
// send window below the link rate) and 1% random loss (so reassembly
// holes accumulate and the receiver-side eviction / re-NAK path runs).
//
// Acceptance (enforced by exit code):
//   - every cell completes: pressure degrades goodput, it never
//     deadlocks or livelocks the transfer;
//   - budget safety: no budgeted cell's ledger peak exceeds its budget;
//   - graceful degradation: each halving of the budget keeps at least
//     kAdjacentFloor of the previous cell's throughput (no cliff), and
//     the starved cell keeps at least kStarvedFloor of unlimited (no
//     collapse to zero);
//   - the starved cell actually exercised the machinery (alloc
//     failures or evictions observed).
//
// Stdout is deterministic; CI diffs it against
// bench/golden/mem_pressure_sweep.txt, so every count in the table is
// gated exactly. Metrics land in BENCH_mem.json when HRMC_BENCH_JSON_DIR
// is set.
#include <array>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

/// Budget axis, bytes per host. 0 = unlimited (accountant-free
/// baseline). The tail is deliberately below the 256 KiB socket
/// buffers: the sender's window and the receivers' reassembly must
/// shrink to fit, trading goodput for footprint.
constexpr std::array<std::uint64_t, 6> kBudgets = {
    0, 512u << 10, 256u << 10, 128u << 10, 64u << 10, 32u << 10};

constexpr std::uint64_t kFileBytes = 8 * kMiB;

std::string budget_label(std::uint64_t b) {
  if (b == 0) return "mem_b0";
  return "mem_b" + std::to_string(b >> 10) + "k";
}

Scenario cell(std::uint64_t budget, const std::string& name) {
  Workload wl;
  wl.file_bytes = kFileBytes;
  Scenario sc = lan_scenario(4, 10e6, 256 << 10, wl, kBenchSeed);
  sc.name = name;
  sc.topo.groups[0].loss_rate = 0.01;
  sc.topo.groups[0].delay = sim::milliseconds(20);
  sc.mem_budget = budget;
  sc.time_limit = sim::seconds(3600);
  return sc;
}

}  // namespace

int main() {
  banner("Memory-pressure sweep: goodput vs per-host budget",
         "8 MB to 4 receivers, 10 Mbps / 20 ms / 1% loss; budget unlimited "
         "-> 32K,\nplus squeeze and alloc-fail windows; acceptance "
         "enforced by exit code");

  Sweep sweep("mem");
  std::vector<Scenario> cells;
  for (std::uint64_t b : kBudgets) cells.push_back(cell(b, budget_label(b)));
  // Shrinker squeeze: a generous 1 MiB budget whose *effective* value
  // drops 80% for a one-second window mid-transfer — consumers must
  // evict down to the squeezed watermark and recover afterwards.
  {
    Scenario sc = cell(1u << 20, "mem_squeeze");
    sc.faults.mem_pressure(0, sim::milliseconds(500), 0.8);
    sc.faults.mem_pressure_stop(0, sim::milliseconds(1500));
    cells.push_back(sc);
  }
  // GFP_ATOMIC-style probabilistic allocation failure: every charge and
  // rx admission flips a seeded 5% coin for one second.
  {
    Scenario sc = cell(1u << 20, "mem_allocfail");
    sc.faults.alloc_fail(0, sim::milliseconds(500), 0.05);
    sc.faults.alloc_fail_stop(0, sim::milliseconds(1500));
    cells.push_back(sc);
  }
  const std::vector<RunResult> results = sweep.run(cells);

  Table t({"cell", "done", "thr Mbps", "elapsed s", "mem peak", "fails",
           "evictions", "stalls", "skb peak"});
  bool all_completed = true;
  bool budget_safe = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RunResult& r = results[i];
    const std::uint64_t budget =
        i < kBudgets.size() ? kBudgets[i] : (1u << 20);
    all_completed = all_completed && r.completed;
    if (budget > 0 && r.mem_peak_bytes > budget) budget_safe = false;
    t.add_row({cells[i].name, r.completed ? "yes" : "NO",
               fmt(r.throughput_mbps, 2), fmt(sim::to_seconds(r.elapsed), 1),
               std::to_string(r.mem_peak_bytes),
               std::to_string(r.mem_alloc_fails),
               std::to_string(r.mem_cache_evictions),
               std::to_string(r.sender.alloc_stalls),
               std::to_string(r.skb_peak_bytes)});

    const std::string& name = cells[i].name;
    sweep.metric(name, "completed", r.completed ? 1.0 : 0.0);
    sweep.metric(name, "elapsed_s", sim::to_seconds(r.elapsed));
    sweep.metric(name, "throughput_mbps", r.throughput_mbps);
    sweep.metric(name, "budget_bytes", static_cast<double>(budget));
    sweep.metric(name, "mem_peak_bytes",
                 static_cast<double>(r.mem_peak_bytes));
    sweep.metric(name, "mem_alloc_fails",
                 static_cast<double>(r.mem_alloc_fails));
    sweep.metric(name, "mem_cache_evictions",
                 static_cast<double>(r.mem_cache_evictions));
    sweep.metric(name, "sender_alloc_stalls",
                 static_cast<double>(r.sender.alloc_stalls));
    sweep.metric(name, "naks_sent",
                 static_cast<double>(r.receivers_total.naks_sent));
    sweep.metric(name, "retransmissions",
                 static_cast<double>(r.sender.retransmissions));
    sweep.metric(name, "skb_peak_bytes",
                 static_cast<double>(r.skb_peak_bytes));
    sweep.metric(name, "skb_live_bytes_end",
                 static_cast<double>(r.skb_live_bytes_end));
  }
  t.print(std::cout);
  std::cout << '\n';

  // Degradation curve over the budget axis (cells [0, kBudgets.size()),
  // loosest first).
  const RunResult& starved_cell = results[kBudgets.size() - 1];
  const double unlimited = results[0].throughput_mbps;
  const double starved = starved_cell.throughput_mbps;
  double worst_adjacent = 1.0;
  for (std::size_t i = 1; i < kBudgets.size(); ++i) {
    const double prev = results[i - 1].throughput_mbps;
    const double cur = results[i].throughput_mbps;
    if (prev > 0.0) worst_adjacent = std::min(worst_adjacent, cur / prev);
  }
  const double starved_ratio = unlimited > 0.0 ? starved / unlimited : 0.0;
  const std::uint64_t starved_pressure = starved_cell.mem_alloc_fails +
                                         starved_cell.mem_cache_evictions +
                                         starved_cell.sender.alloc_stalls;
  std::cout << "goodput: unlimited " << fmt(unlimited, 2) << " Mbps -> "
            << "starved " << fmt(starved, 2) << " Mbps ("
            << fmt(100.0 * starved_ratio, 1) << "% kept); worst "
            << "adjacent step keeps " << fmt(100.0 * worst_adjacent, 1)
            << "%\n";
  sweep.metric("mem_accept", "starved_ratio_x100", starved_ratio * 100.0);
  sweep.metric("mem_accept", "worst_adjacent_x100",
               worst_adjacent * 100.0);
  sweep.metric("mem_accept", "budget_safe", budget_safe ? 1.0 : 0.0);

  bool ok = true;
  if (!all_completed) {
    std::cout << "FAIL: a cell did not complete its transfer "
                 "(deadlock/livelock under pressure)\n";
    ok = false;
  }
  if (!budget_safe) {
    std::cout << "FAIL: a cell's ledger peak exceeded its budget\n";
    ok = false;
  }

  // No collapse to zero: the starved cell keeps a usable fraction.
  constexpr double kStarvedFloor = 0.15;
  // No cliff: each budget halving keeps a bounded fraction.
  constexpr double kAdjacentFloor = 0.30;
  if (starved_ratio < kStarvedFloor) {
    std::cout << "FAIL: starved goodput collapsed below "
              << 100.0 * kStarvedFloor << "% of unlimited\n";
    ok = false;
  }
  if (worst_adjacent < kAdjacentFloor) {
    std::cout << "FAIL: goodput cliff — an adjacent budget step lost "
                 "more than "
              << 100.0 * (1.0 - kAdjacentFloor) << "%\n";
    ok = false;
  }
  if (starved_pressure == 0) {
    std::cout << "FAIL: starved cell recorded no alloc failures, "
                 "evictions, or stalls — pressure not exercised\n";
    ok = false;
  }
  std::cout << (ok ? "\nmem acceptance passed\n"
                   : "\nmem acceptance FAILED\n");
  return ok ? 0 : 1;
}
