// Group-size sweep: 1k -> 1M receivers (million-receiver scaling).
//
// Each cell models N leaves as ceil(N/1000) ModeledReceiver slots of
// ~1000 leaves each, spread over router subtrees of at most 250 slots:
// event count scales with packets and subtrees, not with members, which
// is what makes the 10^6 cell runnable at all. The sweep checks the
// three scaling properties the hierarchy + sharded-MemberTable work
// claims:
//
//   1. Release-check cost is O(subtrees): member_min_rescan_work per
//      release decision tracks the slot count, never the leaf count.
//   2. PROBE traffic is sublinear in the member count (probes per leaf
//      falls as N grows; the per-round cap bounds any one burst).
//   3. Feedback stays aggregated: feedback packets per delivered
//      leaf-gigabyte at 1M within ~2x of the 1k value.
//
// The sweep enforces the acceptance comparisons above, exiting non-zero
// when one fails. Stdout prints no wall times, so it is deterministic;
// CI diffs it against bench/golden/scale_group_sweep.txt, which gates
// the probe, feedback and rescan counts of every cell exactly. Wall time
// per cell goes to BENCH_scale.json when HRMC_BENCH_JSON_DIR is set.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

/// Leaves represented by one ModeledReceiver slot.
constexpr std::uint32_t kLeavesPerSlot = 1000;
/// Slots per router subtree (group router fan-out stays bounded).
constexpr std::size_t kSlotsPerGroup = 250;
/// Independent per-leaf tail loss on top of the simulated network's own
/// drops. Small enough that a 1000-leaf slot sees a handful of holes
/// per stream, large enough that every cell exercises NAK -> repair.
constexpr double kLeafLoss = 1e-5;

struct CellResult {
  std::uint64_t leaves = 0;
  std::size_t slots = 0;
  RunResult run;
  double wall_s = 0.0;
  double feedback_pkts = 0.0;
  double feedback_per_leaf_gb = 0.0;
  double rescan_work_per_release = 0.0;
  double probes_per_leaf = 0.0;
};

Scenario cell(std::uint64_t leaves) {
  const std::size_t slots =
      static_cast<std::size_t>((leaves + kLeavesPerSlot - 1) /
                               kLeavesPerSlot);
  Scenario sc;
  sc.name = "scale_" + std::to_string(leaves);
  sc.topo.network_bps = 100e6;
  sc.topo.seed = sim::substream_seed(kBenchSeed, sc.name + ":topo");
  for (std::size_t left = slots; left > 0;) {
    const auto g = static_cast<int>(std::min(left, kSlotsPerGroup));
    sc.topo.groups.push_back(net::group_a(g));
    left -= static_cast<std::size_t>(g);
  }
  sc.proto.sndbuf = 512 * 1024;
  sc.proto.rcvbuf = 512 * 1024;
  // The knobs a real million-member deployment would run with: batched
  // flash-crowd admission and the per-round probe cap (its default).
  sc.proto.join_batch_threshold = 64;
  sc.proto.feedback_seed = kBenchSeed;
  sc.workload.file_bytes = 2 * kMiB;
  sc.workload.sink_read_rate_bps = 0.0;
  sc.seed = kBenchSeed + leaves;
  // Leaves split as evenly as the slot count allows (remainder spread
  // over the first slots), so Σ population == leaves exactly.
  const std::uint64_t base = leaves / slots;
  const std::uint64_t extra = leaves % slots;
  for (std::size_t i = 0; i < slots; ++i) {
    ModeledGroup mg;
    mg.receiver = i;
    mg.population =
        static_cast<std::uint32_t>(base + (i < extra ? 1 : 0));
    mg.leaf_loss = kLeafLoss;
    sc.modeled.push_back(mg);
  }
  return sc;
}

CellResult run_cell(Sweep& sweep, std::uint64_t leaves) {
  CellResult c;
  c.leaves = leaves;
  const Scenario sc = cell(leaves);
  c.slots = sc.modeled.size();
  const double t0 = wall_seconds();
  c.run = run_transfer(sc);
  c.wall_s = wall_seconds() - t0;

  const proto::SenderStats& s = c.run.sender;
  c.feedback_pkts = static_cast<double>(
      s.naks_received + s.updates_received + s.agg_updates_received +
      s.rate_requests_received + s.urgent_requests_received +
      s.joins_received + s.leaves_received);
  const double leaf_gb = static_cast<double>(leaves) *
                         static_cast<double>(sc.workload.file_bytes) / 1e9;
  c.feedback_per_leaf_gb = c.feedback_pkts / leaf_gb;
  c.rescan_work_per_release =
      static_cast<double>(c.run.member_min_rescan_work) /
      static_cast<double>(std::max<std::uint64_t>(s.release_decisions, 1));
  c.probes_per_leaf =
      static_cast<double>(s.probes_sent) / static_cast<double>(leaves);

  const std::string name = sc.name;
  sweep.metric(name, "completed", c.run.completed ? 1.0 : 0.0);
  sweep.metric(name, "leaves", static_cast<double>(leaves));
  sweep.metric(name, "slots", static_cast<double>(c.slots));
  sweep.metric(name, "wall_s", c.wall_s);
  sweep.metric(name, "elapsed_s", sim::to_seconds(c.run.elapsed));
  sweep.metric(name, "probes_sent",
               static_cast<double>(s.probes_sent));
  sweep.metric(name, "probes_deferred",
               static_cast<double>(s.probes_deferred));
  sweep.metric(name, "feedback_pkts", c.feedback_pkts);
  sweep.metric(name, "feedback_per_leaf_gb", c.feedback_per_leaf_gb);
  sweep.metric(name, "rescan_work_per_release", c.rescan_work_per_release);
  sweep.metric(name, "releases",
               static_cast<double>(s.release_decisions));
  sweep.metric(name, "naks_rx", static_cast<double>(s.naks_received));
  sweep.metric(name, "retransmissions",
               static_cast<double>(s.retransmissions));
  sweep.metric(name, "stall_s", sim::to_seconds(s.window_stall_time));
  return c;
}

std::string f2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

int main() {
  banner("Group-size sweep: 1k -> 1M modeled receivers",
         "acceptance comparisons enforced at 1M");

  Sweep sweep("scale");
  std::vector<CellResult> cells;
  Table t({"leaves", "slots", "done", "sim s", "probes", "feedback",
           "fb/leaf-GB", "rescan/rel"});
  bool all_completed = true;
  for (std::uint64_t n : {1'000, 10'000, 100'000, 1'000'000}) {
    CellResult c = run_cell(sweep, n);
    all_completed = all_completed && c.run.completed;
    t.add_row({std::to_string(c.leaves), std::to_string(c.slots),
               c.run.completed ? "yes" : "NO",
               f2(sim::to_seconds(c.run.elapsed)),
               std::to_string(c.run.sender.probes_sent),
               std::to_string(static_cast<std::uint64_t>(c.feedback_pkts)),
               f2(c.feedback_per_leaf_gb),
               f2(c.rescan_work_per_release)});
    cells.push_back(std::move(c));
  }
  t.print(std::cout);
  std::cout << '\n';

  if (!all_completed) {
    std::cout << "FAIL: a cell did not complete its transfer\n";
    return 1;
  }

  // Acceptance comparisons: the 1M cell against the 1k baseline cell.
  const CellResult& lo = cells.front();
  const CellResult& hi = cells.back();
  bool ok = true;

  // 1. Release-check cost O(subtrees): members walked per release stays
  //    within a small multiple of the slot count — and nowhere near the
  //    leaf count.
  const double rescan_ratio =
      hi.rescan_work_per_release / static_cast<double>(hi.slots);
  std::cout << "release-check work per release @1M: "
            << f2(hi.rescan_work_per_release) << " ("
            << f2(rescan_ratio) << "x slots)\n";
  if (hi.rescan_work_per_release >
      4.0 * static_cast<double>(hi.slots)) {
    std::cout << "FAIL: release-check work is not O(subtrees)\n";
    ok = false;
  }

  // 2. PROBE count sublinear: probes per leaf must fall as the group
  //    grows (a flat design probes every member, holding this constant).
  std::cout << "probes per leaf: " << f2(lo.probes_per_leaf) << " @1k -> "
            << f2(hi.probes_per_leaf) << " @1M\n";
  if (hi.probes_per_leaf >= lo.probes_per_leaf) {
    std::cout << "FAIL: probe traffic is not sublinear in members\n";
    ok = false;
  }

  // 3. Feedback stays aggregated: per delivered leaf-gigabyte, the 1M
  //    cell costs at most ~2x the 1k cell.
  std::cout << "feedback per leaf-GB: " << f2(lo.feedback_per_leaf_gb)
            << " @1k -> " << f2(hi.feedback_per_leaf_gb) << " @1M\n";
  if (hi.feedback_per_leaf_gb > 2.0 * lo.feedback_per_leaf_gb) {
    std::cout << "FAIL: feedback per delivered byte grew past 2x\n";
    ok = false;
  }

  std::cout << (ok ? "\nscale acceptance passed\n"
                   : "\nscale acceptance FAILED\n");
  return ok ? 0 : 1;
}
