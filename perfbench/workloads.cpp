#include "workloads.hpp"

#include <stdexcept>

#include "net/loss.hpp"
#include "sim/random.hpp"

namespace perfbench {

using hrmc::harness::ModeledGroup;
using hrmc::harness::Scenario;
namespace harness = hrmc::harness;
namespace net = hrmc::net;
namespace sim = hrmc::sim;

namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;
/// The paper's simulated application read rate (Fig 16's 64 Mbps).
constexpr double kAppReadBps = 64e6;

/// fanout: Fig 16 panel (a) -- Tests 1-5 x buffers 64K..1M, 10
/// receivers at 100 Mbps, 10 MB each, application reading at 64 Mbps.
std::vector<Scenario> fanout_cells(std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  std::vector<std::size_t> buffers = harness::buffer_sweep();
  if (tiny) buffers = {buffers.front(), buffers.back()};
  std::vector<Scenario> cells;
  for (std::size_t buf : buffers) {
    for (int tc = 1; tc <= 5; ++tc) {
      harness::Workload wl;
      wl.file_bytes = tiny ? 256 * 1024 : 10 * kMiB;
      wl.sink_read_rate_bps = kAppReadBps;
      cells.push_back(harness::test_case_scenario(
          tc, 10, 100e6, buf, wl,
          sim::substream_seed(seed, "fanout:test" + std::to_string(tc) +
                                        ":" + harness::buf_label(buf))));
    }
  }
  return cells;
}

/// lossy: the Test 4 mix (8 group-B + 2 group-C receivers) at 100 Mbps
/// with 512K buffers, hierarchy + NAK suppression + adaptive RS FEC,
/// burst loss and reorder on group 0, corruption and duplication on
/// group 1, and a per-host memory budget below the unconstrained ledger
/// peak, so the accountant charges every allocation and evicts ~250
/// cache entries per transfer. Several independently seeded transfers
/// per pass so one seed's loss draws cannot dominate the pass.
std::vector<Scenario> lossy_cells(std::uint64_t seed, Size size) {
  const bool tiny = size == Size::kTiny;
  const int transfers = tiny ? 2 : 8;
  // Mean burst ~2 packets, ~2% of packets in the bad state.
  constexpr net::GilbertElliottConfig kBurst{0.009, 0.5, 0.002, 1.0};
  std::vector<Scenario> cells;
  for (int i = 0; i < transfers; ++i) {
    harness::Workload wl;
    wl.file_bytes = tiny ? 512 * 1024 : 8 * kMiB;
    wl.sink_read_rate_bps = kAppReadBps;
    const std::uint64_t s =
        sim::substream_seed(seed, "lossy:" + std::to_string(i));
    Scenario sc = harness::test_case_scenario(4, 10, 100e6, 512 * 1024, wl, s);
    sc.name = "lossy" + std::to_string(i);
    sc.hierarchy.enabled = true;
    sc.proto.nak_suppression = true;
    sc.proto.feedback_seed = s;
    sc.proto.fec_group = 8;
    sc.proto.fec_parity_min = 1;
    sc.proto.fec_parity_max = 4;
    sc.proto.fec_adapt_interval = sim::milliseconds(100);
    sc.faults.burst_loss(0, 0, kBurst)
        .reorder(0, 0, 0.01, sim::milliseconds(5))
        .corrupt(1, 0, 0.005)
        .duplicate(1, 0, 0.01);
    sc.mem_budget = 768 * 1024;
    cells.push_back(std::move(sc));
  }
  return cells;
}

/// million: the shard_scale cell -- 1M modeled leaves in 1000 slots
/// over 8 router subtrees, 10 Mbit trunks, on the sharded engine.
/// Several independently seeded transfers per pass: one transfer's
/// feedback and goodput swing widely with its loss draws, and the
/// control plane (1000 JOINs, probes, AGG_UPDATEs) is paid per transfer.
std::vector<Scenario> million_cells(std::uint64_t seed, Size size) {
  constexpr std::uint64_t kLeaves = 1'000'000;
  constexpr std::uint64_t kSlots = 1000;
  constexpr std::size_t kGroups = 8;
  const bool tiny = size == Size::kTiny;
  const int transfers = tiny ? 2 : 16;
  std::vector<Scenario> cells;
  for (int t = 0; t < transfers; ++t) {
    const std::string tag = "million:" + std::to_string(t);
    Scenario sc;
    sc.name = "million" + std::to_string(t);
    sc.topo.network_bps = 10e6;
    sc.topo.seed = sim::substream_seed(seed, tag + ":topo");
    for (std::size_t g = 0; g < kGroups; ++g) {
      const std::size_t lo = kSlots * g / kGroups;
      const std::size_t hi = kSlots * (g + 1) / kGroups;
      sc.topo.groups.push_back(net::group_a(static_cast<int>(hi - lo)));
    }
    sc.proto.sndbuf = 512 * 1024;
    sc.proto.rcvbuf = 512 * 1024;
    sc.proto.join_batch_threshold = 64;
    sc.proto.feedback_seed = sim::substream_seed(seed, tag + ":feedback");
    sc.workload.file_bytes = tiny ? 128 * 1024 : kMiB / 2;
    sc.workload.sink_read_rate_bps = 0.0;
    sc.seed = sim::substream_seed(seed, tag);
    for (std::size_t i = 0; i < kSlots; ++i) {
      ModeledGroup mg;
      mg.receiver = i;
      mg.population = static_cast<std::uint32_t>(kLeaves / kSlots);
      mg.leaf_loss = 1e-5;  // every subtree exercises NAK -> repair
      sc.modeled.push_back(mg);
    }
    sc.shard.enabled = true;
    cells.push_back(std::move(sc));
  }
  return cells;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"fanout", "lossy", "million"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       Size size) {
  Workload w;
  w.name = name;
  if (name == "fanout") {
    w.cells = fanout_cells(seed, size);
  } else if (name == "lossy") {
    w.cells = lossy_cells(seed, size);
  } else if (name == "million") {
    w.cells = million_cells(seed, size);
    w.threads = 2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  for (Scenario& sc : w.cells) sc = with_threads(std::move(sc), w.threads);
  return w;
}

Scenario with_threads(Scenario sc, unsigned threads) {
  if (sc.shard.enabled) sc.shard.threads = threads;
  return sc;
}

}  // namespace perfbench
