// §6 future work (4): forward error correction "particularly for
// wireless environments". Three recovery disciplines under
// Gilbert–Elliott burst loss on the multicast tree:
//
//   nak : pure selective-repeat (fec_group = 0) — every hole costs a
//         NAK round trip and a retransmission.
//   xor : fixed single-parity XOR, 1 row per 8-packet group — the seed
//         protocol's FEC; bursts inside one group defeat it.
//   rs  : adaptive Reed–Solomon — 1..4 Cauchy parity rows per 8-packet
//         group, the rate tracking observed NAK volume per epoch, with
//         selective-repeat fallback when a group's losses exceed its
//         parity budget.
//
// Acceptance (enforced by exit code): at the ~5% burst-loss operating
// point the adaptive RS arm completes the 8 MB transfer with
//   - at least 2x fewer repair events (NAKs sent + retransmissions)
//     than pure NAK, and
//   - at most 1.3x the pure-NAK wire bytes (data + retransmissions +
//     parity: the FEC premium stays bounded).
//
// Stdout is deterministic; CI diffs it against
// bench/golden/ablation_fec.txt, so every count in the table is gated
// exactly. Metrics land in BENCH_fec.json when HRMC_BENCH_JSON_DIR is set.
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/loss.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

/// ~5% mean loss: stationary bad-state share 0.024/(0.024+0.5) = 4.6%
/// at loss_bad = 1, plus 0.5% residual good-state loss. Mean burst
/// length 1/0.5 = 2 packets — bursts routinely defeat one parity row
/// but stay inside the adaptive 4-row budget for an 8-packet group.
constexpr net::GilbertElliottConfig kBurst5{0.024, 0.5, 0.005, 1.0};
/// ~2% mean loss, same 2-packet burst geometry.
constexpr net::GilbertElliottConfig kBurst2{0.009, 0.5, 0.002, 1.0};

struct Arm {
  const char* name;
  std::size_t fec_group;
  std::uint32_t parity_min;
  std::uint32_t parity_max;
  bool adaptive;
};

constexpr Arm kArms[] = {
    {"nak", 0, 1, 1, false},
    {"xor", 8, 1, 1, false},
    {"rs", 8, 1, 4, true},
};

struct Point {
  const char* tag;
  net::GilbertElliottConfig ge;
};

/// Loss points, the ~5% acceptance point last.
constexpr Point kPoints[] = {{"b2", kBurst2}, {"b5", kBurst5}};

constexpr std::uint64_t kFileBytes = 8 * kMiB;

Scenario cell(const Arm& arm, const Point& p) {
  Workload wl;
  wl.file_bytes = kFileBytes;
  Scenario sc = lan_scenario(4, 10e6, 256 << 10, wl, kBenchSeed);
  sc.name = std::string("fec_") + p.tag + "_" + arm.name;
  sc.topo.groups[0].loss_rate = 0.0;  // all loss comes from the GE chain
  sc.topo.groups[0].delay = sim::milliseconds(20);  // recovery RTT matters
  sc.faults.burst_loss(0, 0, p.ge);
  sc.proto.fec_group = arm.fec_group;
  sc.proto.fec_parity_min = arm.parity_min;
  sc.proto.fec_parity_max = arm.parity_max;
  sc.proto.fec_adapt_interval =
      arm.adaptive ? sim::milliseconds(100) : sim::SimTime{0};
  sc.time_limit = sim::seconds(3600);
  return sc;
}

/// NAKs sent by receivers plus retransmissions: every unit is one
/// round-trip-bound repair action FEC is supposed to pre-empt.
std::uint64_t repair_events(const RunResult& r) {
  return r.receivers_total.naks_sent + r.sender.retransmissions;
}

/// Sender wire bytes: first transmissions + retransmissions + parity.
std::uint64_t wire_bytes(const RunResult& r) {
  return r.sender.data_bytes_sent + r.sender.retrans_bytes +
         r.sender.fec_parity_bytes;
}

}  // namespace

int main() {
  banner("Ablation: adaptive RS-FEC vs fixed XOR vs pure NAK",
         "8 MB to 4 receivers, 20 ms paths, Gilbert-Elliott burst loss\n"
         "(mean burst 2 packets); acceptance enforced at the ~5% point");

  Sweep sweep("fec");
  std::vector<Scenario> cells;
  for (const Point& p : kPoints) {
    for (const Arm& arm : kArms) cells.push_back(cell(arm, p));
  }
  const std::vector<RunResult> results = sweep.run(cells);

  Table t({"loss", "arm", "done", "thr Mbps", "NAKs", "retrans",
           "repairs", "recoveries", "decode fail", "parity rate",
           "wire MB"});
  bool all_completed = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RunResult& r = results[i];
    const Arm& arm = kArms[i % std::size(kArms)];
    all_completed = all_completed && r.completed;
    t.add_row({kPoints[i / std::size(kArms)].tag, arm.name,
               r.completed ? "yes" : "NO", fmt(r.throughput_mbps, 2),
               std::to_string(r.receivers_total.naks_sent),
               std::to_string(r.sender.retransmissions),
               std::to_string(repair_events(r)),
               std::to_string(r.receivers_total.fec_recoveries),
               std::to_string(r.receivers_total.fec_decode_failures),
               std::to_string(r.sender.fec_parity_rate),
               fmt(static_cast<double>(wire_bytes(r)) / 1e6, 2)});

    const std::string& name = cells[i].name;
    sweep.metric(name, "completed", r.completed ? 1.0 : 0.0);
    sweep.metric(name, "elapsed_s", sim::to_seconds(r.elapsed));
    sweep.metric(name, "naks_sent",
                 static_cast<double>(r.receivers_total.naks_sent));
    sweep.metric(name, "retransmissions",
                 static_cast<double>(r.sender.retransmissions));
    sweep.metric(name, "repair_events",
                 static_cast<double>(repair_events(r)));
    sweep.metric(name, "fec_recoveries",
                 static_cast<double>(r.receivers_total.fec_recoveries));
    sweep.metric(name, "fec_decode_failures",
                 static_cast<double>(r.receivers_total.fec_decode_failures));
    sweep.metric(name, "fec_packets_sent",
                 static_cast<double>(r.sender.fec_packets_sent));
    sweep.metric(name, "fec_parity_bytes",
                 static_cast<double>(r.sender.fec_parity_bytes));
    sweep.metric(name, "fec_parity_rate",
                 static_cast<double>(r.sender.fec_parity_rate));
    sweep.metric(name, "wire_bytes",
                 static_cast<double>(wire_bytes(r)));
    // Repair bytes on the wire (retransmissions + parity) and NAKs per
    // delivered gigabyte across the 4 receivers — the ROADMAP's ablation
    // axes alongside time-to-complete (elapsed_s).
    sweep.metric(name, "repair_bytes",
                 static_cast<double>(r.sender.retrans_bytes +
                                     r.sender.fec_parity_bytes));
    const double delivered_gb =
        4.0 * static_cast<double>(kFileBytes) / 1e9;
    sweep.metric(name, "naks_per_gb",
                 static_cast<double>(r.receivers_total.naks_sent) /
                     delivered_gb);
  }
  t.print(std::cout);
  std::cout << '\n';

  // Acceptance at the ~5% burst point: arms are laid out nak/xor/rs,
  // with the b5 point last.
  const std::size_t base = cells.size() - std::size(kArms);
  const RunResult& nak = results[base + 0];
  const RunResult& rs = results[base + 2];
  const double repair_ratio =
      static_cast<double>(repair_events(nak)) /
      static_cast<double>(std::max<std::uint64_t>(repair_events(rs), 1));
  const double wire_ratio = static_cast<double>(wire_bytes(rs)) /
                            static_cast<double>(wire_bytes(nak));
  std::cout << "repair events (NAKs + retransmissions): nak="
            << repair_events(nak) << " rs=" << repair_events(rs) << " ("
            << fmt(repair_ratio, 2) << "x fewer)\n"
            << "wire bytes: rs/nak = " << fmt(wire_ratio, 3) << "\n";
  sweep.metric("fec_accept", "repair_ratio", repair_ratio);
  sweep.metric("fec_accept", "wire_ratio_x100", wire_ratio * 100.0);

  if (!all_completed) {
    std::cout << "\nFAIL: an arm did not complete its transfer\n";
    return 1;
  }

  bool ok = true;
  if (repair_ratio < 2.0) {
    std::cout << "FAIL: adaptive RS repair traffic is not 2x below "
                 "pure NAK\n";
    ok = false;
  }
  if (wire_ratio > 1.3) {
    std::cout << "FAIL: adaptive RS wire bytes exceed 1.3x pure NAK\n";
    ok = false;
  }
  std::cout << (ok ? "\nfec acceptance passed\n"
                   : "\nfec acceptance FAILED\n");
  return ok ? 0 : 1;
}
