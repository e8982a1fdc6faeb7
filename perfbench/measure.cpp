#include "measure.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "kern/skbuff.hpp"
#include "layers.hpp"
#include "sim/scheduler.hpp"
#include "trace/verify.hpp"

namespace perfbench {

namespace harness = hrmc::harness;
namespace kern = hrmc::kern;
namespace sim = hrmc::sim;
namespace trace = hrmc::trace;
using harness::RunResult;
using harness::Scenario;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinPasses = 4;
constexpr std::size_t kMinSetupReps = 3;
/// Set-up time spent after each pass, as a share of the pass's wall.
constexpr double kSetupShare = 0.1;
/// Trace ring per run (per domain when sharded). The ring grows only as
/// records arrive; overflowing it fails the cell, since a truncated
/// trace can neither be verified nor counted.
constexpr std::size_t kRingCapacity = std::size_t{1} << 24;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Why a finished run is wrong, or "" when it is fine.
std::string problem(const RunResult& r) {
  if (!r.completed) return "did not complete";
  if (!r.verify_ok) return "delivered bytes failed pattern verification";
  if (r.any_stream_error) return "receiver reported a stream error";
  return "";
}

/// Replay identity: two runs of one Scenario executed the same schedule.
bool same_schedule(const RunResult& a, const RunResult& b) {
  return a.events_executed == b.events_executed && a.rng_digest == b.rng_digest;
}

/// Runs one cell under a span and counts the attempt; the caller
/// judges it (see verdict).
RunResult run_cell(const Scenario& sc, const std::string& label, Report& rep,
                   SpanLog& spans, std::size_t parent, double* wall_s) {
  ScopedSpan span(spans, "run_transfer " + sc.name + " " + label, parent);
  const auto t0 = Clock::now();
  RunResult r = harness::run_transfer(sc);
  *wall_s = since(t0);
  ++rep.attempted;
  return r;
}

/// Records one cell run's first problem, if any: a run fails once.
void verdict(Report& rep, const std::string& workload, const Scenario& sc,
             const std::string& label, const std::string& why) {
  if (!why.empty()) {
    rep.fail(workload + "/" + sc.name + " " + label + ": " + why);
  }
}

/// Peak resident set of this process image, in MiB: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss would also count the
/// launching process's footprint, which survives fork + exec.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace

Report run_end_to_end(const Workload& w, double seconds, SpanLog& spans) {
  Report rep;
  const std::size_t root = spans.open("end_to_end " + w.name);

  // Set-up: the same cells with a zero time limit build scenario,
  // topology and sockets, run the t = 0 events and tear down. One
  // repetition is about a millisecond, so it is repeated in slices
  // between the passes (about a tenth of the measuring time in all,
  // spread over the whole run like the passes) and the median taken.
  std::vector<Scenario> zero = w.cells;
  for (Scenario& sc : zero) sc.time_limit = 0;
  std::vector<double> setup;
  const auto setup_slice = [&](double budget_s) {
    ScopedSpan span(spans, "setup", root);
    const auto t_begin = Clock::now();
    for (std::size_t n = 0; n < kMinSetupReps || since(t_begin) < budget_s;
         ++n) {
      const auto t0 = Clock::now();
      for (const Scenario& sc : zero) (void)harness::run_transfer(sc);
      setup.push_back(since(t0));
    }
  };

  // Pass 0 is the reference every later pass must reproduce; passes
  // repeat until `seconds` is used. Other load on a shared host comes
  // and goes within seconds and slows a pass by up to ~40%, so a median
  // over a few passes follows it. Each cell's fastest run is the
  // estimate least affected by it. A cold first run is slower and the
  // minimum passes over it, so pass 0 needs no separate warm-up role.
  std::vector<std::vector<double>> cell_walls(w.cells.size());
  std::vector<RunResult> first;
  const auto t_begin = Clock::now();
  for (int pass = 0;; ++pass) {
    ScopedSpan pass_span(spans, "pass " + std::to_string(pass), root);
    double wall = 0.0;
    const std::string label = "pass " + std::to_string(pass);
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      double cell_wall = 0.0;
      RunResult r = run_cell(w.cells[i], label, rep, spans, pass_span.id(),
                             &cell_wall);
      wall += cell_wall;
      cell_walls[i].push_back(cell_wall);
      std::string why = problem(r);
      if (why.empty() && pass > 0 && !same_schedule(r, first[i])) {
        why = "diverged from pass 0";
      }
      verdict(rep, w.name, w.cells[i], label, why);
      if (pass == 0) {
        r.per_receiver.clear();
        first.push_back(std::move(r));
      }
    }
    setup_slice(kSetupShare * wall);
    if (pass + 1 >= kMinPasses &&
        since(t_begin) + (1.0 + kSetupShare) * wall > seconds) {
      break;
    }
  }
  spans.close(root);

  std::uint64_t pkts = 0, feedback = 0, wire = 0, file = 0;
  double delivered = 0.0, goodput = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const RunResult& r = first[i];
    pkts += delivered_pkts(r);
    feedback += feedback_pkts(r);
    wire += wire_bytes(r);
    file += w.cells[i].workload.file_bytes;
    delivered += delivered_bytes(w.cells[i], r);
    goodput += r.throughput_mbps;
  }
  double wall_s = 0.0;
  for (const std::vector<double>& walls : cell_walls) {
    wall_s += *std::min_element(walls.begin(), walls.end());
  }
  rep.values["wall_s"] = wall_s;
  rep.values["ns_per_pkt"] = ns_per_pkt(wall_s, pkts);
  rep.values["setup_s"] = *std::min_element(setup.begin(), setup.end());
  rep.values["peak_rss_mb"] = peak_rss_mb();
  rep.values["goodput_mbps"] = goodput / static_cast<double>(first.size());
  rep.values["feedback_per_mb"] = feedback_per_mb(feedback, delivered);
  rep.values["wire_overhead"] = wire_overhead(wire, file);
  rep.values["ok_share"] =
      1.0 - ratio(static_cast<double>(rep.failed),
                  static_cast<double>(rep.attempted));
  return rep;
}

Report run_traced(const Workload& w, std::uint64_t seed, SpanLog& spans) {
  Report rep;
  const std::size_t root = spans.open("traced " + w.name);

  std::vector<RunResult> results;  // traced runs, records dropped
  std::array<std::uint64_t, 256> kinds{};
  std::uint64_t erasures = 0;  // Σ kFecRepair value (erasures per group)
  std::uint64_t records = 0, dropped = 0;
  std::uint64_t release_violations = 0;  // modeled populations only
  double wall_untraced_1t = 0.0, wall_traced = 0.0;
  kern::SkBuffStats skb{};
  for (const Scenario& sc : w.cells) {
    double wall = 0.0;
    const RunResult untraced =
        run_cell(sc, "untraced", rep, spans, root, &wall);
    verdict(rep, w.name, sc, "untraced", problem(untraced));
    if (w.threads != 1) {
      // Sharded: the 1-thread run is the reference for the traced run
      // and for wall-time shares; it must match the N-thread run.
      const RunResult one =
          run_cell(with_threads(sc, 1), "untraced 1-thread", rep, spans, root,
                   &wall);
      std::string why = problem(one);
      if (why.empty() && !same_schedule(one, untraced)) {
        why = "diverged from the " + std::to_string(w.threads) + "-thread run";
      }
      verdict(rep, w.name, sc, "untraced 1-thread", why);
    }
    wall_untraced_1t += wall;

    Scenario traced_sc = with_threads(sc, 1);
    traced_sc.trace.enabled = true;
    traced_sc.trace.ring_capacity = kRingCapacity;
    // skbuff counters are per thread: the 1-thread run keeps every
    // domain on this thread, so the delta is the whole run's.
    const kern::SkBuffStats before = kern::skbuff_stats();
    RunResult r = run_cell(traced_sc, "traced", rep, spans, root, &wall);
    const kern::SkBuffStats& after = kern::skbuff_stats();
    skb.block_allocs += after.block_allocs - before.block_allocs;
    skb.pool_hits += after.pool_hits - before.pool_hits;
    skb.clones += after.clones - before.clones;
    skb.cow_copies += after.cow_copies - before.cow_copies;
    wall_traced += wall;

    std::string why = problem(r);
    if (why.empty() && !same_schedule(r, untraced)) {
      why = "diverged from the untraced run";
    }
    if (why.empty() && r.trace_dropped > 0) why = "trace ring overflowed";
    if (r.trace_dropped == 0) {
      // Release safety fails on modeled populations on every seed and
      // on both engines, so there it is counted, not a cell failure;
      // every other invariant must hold everywhere.
      trace::VerifyOptions opt;
      opt.mem_budget = sc.mem_budget;
      // The NAK-answer bound is a liveness floor. On the lossy WAN
      // mixes an answer can come just after the 2 s default (2.04 s on
      // fanout seed 3, a Test 3 cell); the chaos oracle uses 15 s too.
      opt.nak_answer_bound = sim::seconds(15);
      opt.check_release = sc.modeled.empty();
      const trace::VerifyResult v = trace::verify(r.trace_records, opt);
      if (why.empty() && !v.ok) {
        why = "trace::verify: " + (v.violations.empty()
                                       ? std::string("violation")
                                       : v.violations.front());
      }
      if (!opt.check_release) {
        trace::VerifyOptions release_only;
        release_only.check_nak = false;
        release_only.check_rate = false;
        release_only.check_mem = false;
        release_violations +=
            trace::verify(r.trace_records, release_only).violation_count;
      }
    }
    verdict(rep, w.name, sc, "traced", why);
    for (const trace::TraceRecord& rec : r.trace_records) {
      ++kinds[static_cast<std::size_t>(rec.kind)];
      if (rec.kind == trace::EventKind::kFecRepair) erasures += rec.value;
    }
    records += r.trace_records.size();
    dropped += r.trace_dropped;
    r.trace_records = {};
    r.per_receiver = {};
    results.push_back(std::move(r));
  }

  // Work counts, summed over cells.
  const auto sum = [&](auto field) {
    double s = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      s += static_cast<double>(field(w.cells[i], results[i]));
    }
    return s;
  };
  const auto kind = [&](trace::EventKind k) {
    return static_cast<double>(kinds[static_cast<std::size_t>(k)]);
  };
  using S = const Scenario&;
  using R = const RunResult&;
  const double pkts = sum([](S, R r) { return delivered_pkts(r); });
  const double events = sum([](S, R r) { return r.events_executed; });
  const double compactions = sum([](S, R r) { return r.sched_compactions; });
  const double epochs = sum([](S, R r) { return r.shard_epochs; });
  const double data_sent =
      sum([](S, R r) { return r.sender.data_packets_sent; });
  const double data_bytes_sent =
      sum([](S, R r) { return r.sender.data_bytes_sent; });
  const double feedback = sum([](S, R r) { return feedback_pkts(r); });
  const double csum = sum([](S, R r) { return csum_bytes_est(r); });
  const double file_bytes =
      sum([](S sc, R) { return sc.workload.file_bytes; });
  const double verified =
      sum([](S, R r) { return r.receivers_total.bytes_delivered; });
  const double releases =
      sum([](S, R r) { return r.sender.release_decisions; });

  bool fec = false, budget = false;
  std::size_t fec_k = 8;
  double parity_rate = 0.0, receivers = 0.0, groups = 0.0;
  double mem_peak = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Scenario& sc = w.cells[i];
    if (sc.proto.fec_group > 0) {
      fec = true;
      fec_k = sc.proto.fec_group;
    }
    budget = budget || sc.mem_budget > 0;
    parity_rate += static_cast<double>(results[i].sender.fec_parity_rate);
    for (const auto& g : sc.topo.groups) receivers += g.receivers;
    groups += static_cast<double>(sc.topo.groups.size());
    mem_peak = std::max(mem_peak,
                        static_cast<double>(results[i].mem_peak_bytes));
  }

  auto& v = rep.values;
  v["sim.events"] = events;
  v["sim.events_per_pkt"] = ratio(events, pkts);
  v["sim.compactions"] = compactions;
  v["sim.epochs"] = epochs;
  v["sim.events_per_epoch"] = ratio(events, epochs);
  v["sim.handoffs_per_epoch"] =
      ratio(sum([](S, R r) { return r.shard_handoffs; }), epochs);
  v["sim.handoff_bytes"] = sum([](S, R r) { return r.shard_handoff_bytes; });
  if (epochs == 0.0) {
    for (const char* m : {"sim.epochs", "sim.events_per_epoch",
                          "sim.handoffs_per_epoch", "sim.handoff_bytes"}) {
      rep.na(m, "serial engine, no epochs");
    }
  }
  v["kern.csum_bytes_est"] = csum;
  v["kern.clones_per_pkt"] = ratio(static_cast<double>(skb.clones), pkts);
  v["kern.cow_copies_per_pkt"] =
      ratio(static_cast<double>(skb.cow_copies), pkts);
  v["kern.pool_hit_ratio"] =
      ratio(static_cast<double>(skb.pool_hits),
            static_cast<double>(skb.pool_hits + skb.block_allocs));
  v["kern.mem_peak_bytes"] = mem_peak;
  v["kern.mem_alloc_fails"] = sum([](S, R r) { return r.mem_alloc_fails; });
  v["kern.mem_evictions"] = sum([](S, R r) { return r.mem_cache_evictions; });
  if (!budget) {
    for (const char* m : {"kern.mem_peak_bytes", "kern.mem_alloc_fails",
                          "kern.mem_evictions"}) {
      rep.na(m, "no memory budget");
    }
  }
  v["net.enqueues_per_pkt"] = ratio(kind(trace::EventKind::kEnqueue), pkts);
  v["net.drops"] = kind(trace::EventKind::kDrop);
  v["net.device_full"] = kind(trace::EventKind::kDeviceFull);
  v["net.corrupt"] = kind(trace::EventKind::kCorrupt);
  v["hrmc.data_pkts_sent"] = data_sent;
  v["hrmc.retransmissions"] =
      sum([](S, R r) { return r.sender.retransmissions; });
  v["hrmc.naks_sent"] = sum([](S, R r) { return r.receivers_total.naks_sent; });
  v["hrmc.feedback_pkts"] = feedback;
  v["hrmc.fec_recoveries"] =
      sum([](S, R r) { return r.receivers_total.fec_recoveries; });
  v["hrmc.fec_decode_failures"] =
      sum([](S, R r) { return r.receivers_total.fec_decode_failures; });
  v["hrmc.repairs_served"] =
      sum([](S, R r) { return r.receivers_total.repairs_served; });
  v["hrmc.release_decisions"] = releases;
  v["hrmc.rescan_work_per_release"] =
      ratio(sum([](S, R r) { return r.member_min_rescan_work; }), releases);
  v["hrmc.probes_sent"] = sum([](S, R r) { return r.sender.probes_sent; });
  v["hrmc.release_violations"] = static_cast<double>(release_violations);
  if (!fec) {
    for (const char* m : {"hrmc.fec_recoveries", "hrmc.fec_decode_failures",
                          "hrmc.ns_fec_encode_group",
                          "hrmc.ns_fec_decode_group"}) {
      rep.na(m, "FEC off");
    }
  }
  v["app.pattern_bytes"] = file_bytes + verified;
  v["trace.records"] = static_cast<double>(records);
  v["trace.dropped"] = static_cast<double>(dropped);
  v["trace.overhead"] = ratio(wall_traced, wall_untraced_1t) - 1.0;

  // Timed layer calls, shaped by this run's own counts.
  LayerInputs in;
  in.seed = seed;
  in.payload_bytes = data_sent > 0.0
                         ? static_cast<std::size_t>(
                               std::lround(data_bytes_sent / data_sent))
                         : 1460;
  in.fanout = static_cast<std::size_t>(std::lround(ratio(receivers, groups)));
  in.network_bps = w.cells.front().topo.network_bps;
  in.fec = fec;
  in.fec_k = fec_k;
  in.fec_r = static_cast<std::size_t>(std::max(
      1L, std::lround(parity_rate / static_cast<double>(results.size()))));
  const double repaired = kind(trace::EventKind::kFecRepair);
  in.fec_erasures = repaired > 0.0
                        ? static_cast<std::size_t>(std::max(
                              1L, std::lround(static_cast<double>(erasures) /
                                              repaired)))
                        : 1;
  // Cancels are not counted by the scheduler; each compaction sweeps at
  // least kCompactMinTombstones of them, which gives a lower bound.
  in.cancel_share = std::min(
      0.5, ratio(compactions * static_cast<double>(
                     sim::detail::SchedulerCore::kCompactMinTombstones),
                 events));
  in.chunk = w.cells.front().workload.chunk;
  const LayerCosts c = time_layers(in, spans, root);
  v["sim.ns_per_event"] = c.sim_ns_per_event;
  v["kern.ns_per_csum_kb"] = c.kern_ns_per_csum_kb;
  v["net.ns_per_fanout_clone"] = c.net_ns_per_fanout_clone;
  v["hrmc.ns_header_write"] = c.hrmc_ns_header_write;
  v["hrmc.ns_header_read"] = c.hrmc_ns_header_read;
  v["hrmc.ns_fec_encode_group"] = c.hrmc_ns_fec_encode_group;
  v["hrmc.ns_fec_decode_group"] = c.hrmc_ns_fec_decode_group;
  v["app.ns_per_kb_verify"] = c.app_ns_per_kb_verify;
  v["app.ns_per_kb_fill"] = c.app_ns_per_kb_fill;

  // Attribution: Σ count x timed cost per layer, as a share of the
  // untraced 1-thread wall time. Header costs exclude the checksum they
  // contain (counted under kern); the router fan-out cost includes its
  // service event, which sim also counts, so shares can overlap and
  // unattributed_share can go negative -- a sign the outside model is
  // off, not a result to trust.
  const double csum_ns_per_byte = c.kern_ns_per_csum_kb / 1024.0;
  const double pkt_len = static_cast<double>(in.payload_bytes + 20);
  const double header_writes =
      sum([](S, R r) {
        return r.sender.data_packets_sent + r.sender.retransmissions +
               r.sender.fec_packets_sent;
      }) +
      feedback;
  const double header_reads =
      sum([](S, R r) {
        return r.receivers_total.data_packets_received +
               r.receivers_total.fec_packets_received;
      }) +
      feedback;
  const double write_self =
      std::max(0.0, c.hrmc_ns_header_write - csum_ns_per_byte * pkt_len);
  const double read_self =
      std::max(0.0, c.hrmc_ns_header_read - csum_ns_per_byte * pkt_len);
  const double encode_groups =
      fec ? data_sent / static_cast<double>(fec_k) : 0.0;
  const double decode_groups =
      fec ? repaired / static_cast<double>(in.fec_erasures) : 0.0;
  const double wall_ns = wall_untraced_1t * 1e9;
  const double sim_share = ratio(events * c.sim_ns_per_event, wall_ns);
  const double kern_share = ratio(csum * csum_ns_per_byte, wall_ns);
  const double net_share = ratio(
      kind(trace::EventKind::kEnqueue) * c.net_ns_per_fanout_clone, wall_ns);
  const double hrmc_share =
      ratio(header_writes * write_self + header_reads * read_self +
                encode_groups * c.hrmc_ns_fec_encode_group +
                decode_groups * c.hrmc_ns_fec_decode_group,
            wall_ns);
  const double app_share =
      ratio((file_bytes * c.app_ns_per_kb_fill +
             verified * c.app_ns_per_kb_verify) /
                1024.0,
            wall_ns);
  v["sim.est_share"] = sim_share;
  v["kern.est_share"] = kern_share;
  v["net.est_share"] = net_share;
  v["hrmc.est_share"] = hrmc_share;
  v["app.est_share"] = app_share;
  v["unattributed_share"] =
      1.0 - (sim_share + kern_share + net_share + hrmc_share + app_share);
  spans.close(root);
  return rep;
}

}  // namespace perfbench
