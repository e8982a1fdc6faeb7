// Sharded-engine scaling: the million-receiver scenario executed by
// the conservative-time ShardEngine at 1, 2, 4 and 8 worker threads.
//
// The cell is the 1M-leaf modeled-receiver build from the group-size
// sweep, respread over eight router subtrees (= eight shard domains
// plus the sender/backbone domain) and run on 10 Mbit trunks: the
// engine's lookahead is one minimum-wire-packet serialization time on
// the trunk, so slower trunks mean wider epoch windows and more events
// executed per barrier -- the regime conservative parallelism pays in.
//
// Two things are checked, with different teeth:
//
//   1. Bit-identity (always enforced, any core count): every thread
//      count must reproduce the 1-thread run exactly -- event count,
//      PRNG end-state digest, epoch/handoff/compaction accounting. A
//      divergence is a determinism bug, never a perf tradeoff, so the
//      binary exits non-zero even on a single-core box.
//   2. Throughput scaling (enforced only where the hardware can
//      deliver it): >=1.6x events/sec at 2 threads and >=2.8x at 4,
//      each checked when the run measured that thread count and
//      skipped with a note when hardware_concurrency() is below it.
//
// `--smoke` runs the same topology with a smaller file at 1/2 threads
// only, so it checks identity and the 2-thread floor (CI runs it); full
// mode adds 4/8 threads and the 4-thread floor.
// Emits BENCH_shard.json when HRMC_BENCH_JSON_DIR is set.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"

using namespace hrmc;
using namespace hrmc::harness;
using namespace hrmc::bench;

namespace {

/// Leaves represented by one ModeledReceiver slot.
constexpr std::uint32_t kLeavesPerSlot = 1000;
/// Router subtrees: one shard domain each, plus the sender domain.
constexpr std::size_t kGroups = 8;
/// Independent per-leaf tail loss (same knob as the group-size sweep):
/// enough that every subtree exercises NAK -> repair across the trunk.
constexpr double kLeafLoss = 1e-5;
constexpr std::uint64_t kLeaves = 1'000'000;

Scenario cell(std::uint64_t file_bytes) {
  const std::size_t slots =
      static_cast<std::size_t>((kLeaves + kLeavesPerSlot - 1) /
                               kLeavesPerSlot);
  Scenario sc;
  sc.name = "shard_" + std::to_string(kLeaves);
  sc.topo.network_bps = 10e6;
  sc.topo.seed = sim::substream_seed(kBenchSeed, sc.name + ":topo");
  for (std::size_t g = 0; g < kGroups; ++g) {
    const std::size_t lo = slots * g / kGroups;
    const std::size_t hi = slots * (g + 1) / kGroups;
    sc.topo.groups.push_back(net::group_a(static_cast<int>(hi - lo)));
  }
  sc.proto.sndbuf = 512 * 1024;
  sc.proto.rcvbuf = 512 * 1024;
  sc.proto.join_batch_threshold = 64;
  sc.proto.feedback_seed = kBenchSeed;
  sc.workload.file_bytes = file_bytes;
  sc.workload.sink_read_rate_bps = 0.0;
  sc.seed = kBenchSeed + kLeaves;
  const std::uint64_t base = kLeaves / slots;
  const std::uint64_t extra = kLeaves % slots;
  for (std::size_t i = 0; i < slots; ++i) {
    ModeledGroup mg;
    mg.receiver = i;
    mg.population = static_cast<std::uint32_t>(base + (i < extra ? 1 : 0));
    mg.leaf_loss = kLeafLoss;
    sc.modeled.push_back(mg);
  }
  sc.shard.enabled = true;
  return sc;
}

struct ThreadRun {
  unsigned threads = 0;
  double wall_s = 0.0;
  RunResult run;
};

/// Runs the cell `reps` times at `threads` workers and keeps the
/// fastest wall time (every rep is the same deterministic run, so the
/// min is pure measurement, not survivorship).
ThreadRun measure(const Scenario& base, unsigned threads, int reps) {
  ThreadRun best;
  best.threads = threads;
  best.wall_s = 1e300;
  for (int r = 0; r < reps; ++r) {
    Scenario sc = base;
    sc.shard.threads = threads;
    const double t0 = wall_seconds();
    RunResult res = run_transfer(sc);
    const double w = wall_seconds() - t0;
    if (w < best.wall_s) {
      best.wall_s = w;
      best.run = std::move(res);
    }
  }
  return best;
}

/// The replay-identity tuple: if any of these differ between thread
/// counts, the engine's schedule depended on the worker count.
bool identical(const RunResult& a, const RunResult& b, std::string* why) {
  auto check = [why](const char* field, std::uint64_t x, std::uint64_t y) {
    if (x == y) return true;
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s: %" PRIu64 " vs %" PRIu64, field, x,
                  y);
    *why = buf;
    return false;
  };
  return check("events_executed", a.events_executed, b.events_executed) &&
         check("rng_digest", a.rng_digest, b.rng_digest) &&
         check("sched_compactions", a.sched_compactions,
               b.sched_compactions) &&
         check("shard_epochs", a.shard_epochs, b.shard_epochs) &&
         check("shard_handoffs", a.shard_handoffs, b.shard_handoffs) &&
         check("shard_handoff_bytes", a.shard_handoff_bytes,
               b.shard_handoff_bytes);
}

std::string f2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  banner("Sharded engine: 1M modeled receivers, 1/2/4/8 worker threads",
         smoke ? "smoke: 1/2 threads, small file; identity always enforced"
               : "full: scaling floors enforced where the hardware allows");

  const std::uint64_t file_bytes = smoke ? 256 * 1024 : kMiB;
  std::vector<unsigned> threads{1, 2};
  if (!smoke) {
    threads.push_back(4);
    threads.push_back(8);
  }
  const int reps = smoke ? 3 : 2;

  const Scenario sc = cell(file_bytes);
  Sweep sweep("shard");
  const std::string name = smoke ? "shard_smoke" : "shard_full";

  std::vector<ThreadRun> runs;
  for (unsigned t : threads) runs.push_back(measure(sc, t, reps));
  const ThreadRun& serial = runs.front();
  const double serial_eps =
      static_cast<double>(serial.run.events_executed) / serial.wall_s;

  bool ok = true;
  if (!serial.run.completed) {
    std::cout << "FAIL: the transfer did not complete\n";
    ok = false;
  }

  bool bit_identical = true;
  for (const ThreadRun& r : runs) {
    std::string why;
    if (!identical(serial.run, r.run, &why)) {
      std::cout << "FAIL: " << r.threads
                << "-thread run diverged from serial -- " << why << "\n";
      bit_identical = false;
      ok = false;
    }
  }

  Table t({"threads", "wall s", "events/s", "speedup", "efficiency",
           "epochs", "handoffs"});
  sweep.metric(name, "leaves", static_cast<double>(kLeaves));
  sweep.metric(name, "slots", static_cast<double>(sc.modeled.size()));
  sweep.metric(name, "file_bytes", static_cast<double>(file_bytes));
  sweep.metric(name, "domains",
               static_cast<double>(serial.run.shard_domains));
  sweep.metric(name, "completed", serial.run.completed ? 1.0 : 0.0);
  sweep.metric(name, "bit_identical", bit_identical ? 1.0 : 0.0);
  sweep.metric(name, "events",
               static_cast<double>(serial.run.events_executed));
  sweep.metric(name, "epochs", static_cast<double>(serial.run.shard_epochs));
  sweep.metric(name, "handoffs",
               static_cast<double>(serial.run.shard_handoffs));
  sweep.metric(name, "handoff_bytes",
               static_cast<double>(serial.run.shard_handoff_bytes));
  sweep.metric(name, "compactions",
               static_cast<double>(serial.run.sched_compactions));
  sweep.metric(name, "hardware_threads", static_cast<double>(hw));

  double speedup_2t = 0.0, speedup_4t = 0.0;
  for (const ThreadRun& r : runs) {
    const double eps = static_cast<double>(r.run.events_executed) / r.wall_s;
    const double speedup = r.threads == 1 ? 1.0 : serial.wall_s / r.wall_s;
    const double efficiency = speedup / static_cast<double>(r.threads);
    if (r.threads == 2) speedup_2t = speedup;
    if (r.threads == 4) speedup_4t = speedup;
    const std::string suffix = std::to_string(r.threads) + "t";
    sweep.metric(name, "wall_s_" + suffix, r.wall_s);
    sweep.metric(name, "events_per_sec_" + suffix, eps);
    if (r.threads > 1) {
      sweep.metric(name, "speedup_" + suffix, speedup);
      sweep.metric(name, "efficiency_" + suffix, efficiency);
    }
    t.add_row({std::to_string(r.threads), f2(r.wall_s),
               std::to_string(static_cast<std::uint64_t>(eps)), f2(speedup),
               f2(efficiency), std::to_string(serial.run.shard_epochs),
               std::to_string(serial.run.shard_handoffs)});
  }
  t.print(std::cout);
  std::cout << "\nserial: " << serial.run.events_executed << " events, "
            << serial.run.shard_domains << " domains, "
            << static_cast<std::uint64_t>(serial_eps) << " events/s\n";

  // Scaling floors: only meaningful where the hardware has the cores.
  // A 1-core host timeshares every worker onto one CPU, so speedups
  // there hover near (or below) 1.0 by construction -- identity is the
  // property that must hold anywhere. The floors are targets the engine
  // barely meets: on 4 cores (GCC 12.2, Release) the smoke cell ran
  // 1.53x-1.73x at 2 threads over seven runs, and the full cell 1.65x at
  // 2 threads but 1.66x at 4, so full mode fails its 4-thread floor.
  struct Floor {
    unsigned threads;
    double speedup;
    double floor;
  };
  for (const Floor& f : {Floor{2, speedup_2t, 1.6},
                         Floor{4, speedup_4t, 2.8}}) {
    if (std::ranges::find(threads, f.threads) == threads.end()) continue;
    if (hw < f.threads) {
      std::cout << "skip: " << f.threads << "-thread floor ("
                << f2(f.floor) << "x) needs >= " << f.threads
                << " hardware threads, have " << hw << "\n";
      continue;
    }
    if (f.speedup < f.floor) {
      std::cout << "FAIL: " << f.threads << "-thread speedup "
                << f2(f.speedup) << "x is below the " << f2(f.floor)
                << "x floor\n";
      ok = false;
    } else {
      std::cout << "ok: " << f.threads << "-thread speedup "
                << f2(f.speedup) << "x >= " << f2(f.floor) << "x\n";
    }
  }

  std::cout << (ok ? "\nshard scaling passed\n" : "\nshard scaling FAILED\n");
  return ok ? 0 : 1;
}
