#include "harness/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>

#include "harness/parallel.hpp"
#include "sim/random.hpp"
#include "trace/verify.hpp"

namespace hrmc::harness {

namespace {

using net::FaultEvent;
using net::FaultKind;

/// Trace ring capacity per engine domain for judged runs (32 B a record;
/// the ring grows only as records arrive). The largest soak segment
/// among seeds 1-1200 writes about 2.6M records; chaos seeds stay
/// within a few thousand.
constexpr std::size_t kChaosTraceRecords = std::size_t{1} << 22;

// --- Generation ------------------------------------------------------

/// Recovery partner of a fault kind: FaultKind lists each onset right
/// before its recovery, so the partner differs in the lowest bit. Every
/// generated fault carries its partner so scenarios stay survivable; the
/// shrinker removes pairs together so a candidate never turns a
/// recoverable fault into an unrecoverable one (which would change the
/// failure being minimized).
FaultKind partner_of(FaultKind k) {
  static_assert(net::kFaultKindCount % 2 == 0);
  return static_cast<FaultKind>(static_cast<std::size_t>(k) ^ 1);
}

[[nodiscard]] bool receiver_scoped(FaultKind k) {
  return k == FaultKind::kReceiverCrash || k == FaultKind::kReceiverRestart ||
         k == FaultKind::kLinkDown || k == FaultKind::kLinkUp;
}

FaultEvent make_fault(FaultKind kind, sim::SimTime at, std::size_t target) {
  FaultEvent ev;
  ev.kind = kind;
  ev.at = at;
  ev.target = target;
  return ev;
}

}  // namespace

ChaosSpec generate_spec(std::uint64_t seed) {
  sim::Rng rng(sim::substream_seed(seed, "chaos/gen"));
  ChaosSpec s;
  s.seed = seed;
  s.network_bps = rng.chance(0.5) ? 10e6 : 100e6;
  s.file_bytes = (16u * 1024) << rng.uniform_int(0, 3);  // 16K .. 128K
  s.kernel_buf = (64u * 1024) << rng.uniform_int(0, 2);  // 64K .. 256K

  const int ngroups = rng.chance(0.35) ? 2 : 1;
  for (int g = 0; g < ngroups; ++g) {
    s.group_kind.push_back(static_cast<int>(rng.uniform_int(0, 2)));
    s.group_receivers.push_back(static_cast<int>(1 + rng.uniform_int(0, 2)));
  }
  const auto receivers = static_cast<std::int64_t>(s.receiver_count());

  // Fault pairs: each is an onset plus its recovery, so every scenario
  // is survivable by construction (an unrecoverable scenario would make
  // the oracle test the generator, not the protocol).
  const int npairs = static_cast<int>(rng.uniform_int(0, 4));
  bool lossy_faults = false;  // faults that can silence probe traffic
  bool path_faults = false;   // faults that break a multicast path
  for (int i = 0; i < npairs; ++i) {
    const auto cat = rng.uniform_int(0, 10);
    // Chaos transfers complete in ~100-400 ms of sim time (short files,
    // slow-start dominated), so onsets land across the join phase and
    // the whole transfer, and blackouts are long enough to bite but
    // short enough that recovery happens on-stream, not after it.
    const sim::SimTime t0 = sim::milliseconds(50 + rng.uniform_int(0, 300));
    const sim::SimTime t1 = t0 + sim::milliseconds(20 + rng.uniform_int(0, 180));
    const auto rcv = static_cast<std::size_t>(
        rng.uniform_int(0, receivers - 1));
    const auto grp =
        static_cast<std::size_t>(rng.uniform_int(0, ngroups - 1));
    switch (cat) {
      case 0: {
        s.faults.push_back(make_fault(FaultKind::kReceiverCrash, t0, rcv));
        s.faults.push_back(make_fault(FaultKind::kReceiverRestart, t1, rcv));
        lossy_faults = true;
        break;
      }
      case 1: {
        s.faults.push_back(make_fault(FaultKind::kLinkDown, t0, rcv));
        s.faults.push_back(make_fault(FaultKind::kLinkUp, t1, rcv));
        lossy_faults = true;
        break;
      }
      case 2: {
        s.faults.push_back(make_fault(FaultKind::kPartition, t0, grp));
        s.faults.push_back(make_fault(FaultKind::kHeal, t1, grp));
        lossy_faults = true;
        break;
      }
      case 3: {
        FaultEvent ev = make_fault(FaultKind::kBurstLossStart, t0, grp);
        ev.ge.p_good_bad = rng.uniform(0.001, 0.05);
        ev.ge.p_bad_good = rng.uniform(0.1, 0.5);
        ev.ge.loss_bad = rng.uniform(0.5, 1.0);
        s.faults.push_back(ev);
        s.faults.push_back(make_fault(FaultKind::kBurstLossStop, t1, grp));
        lossy_faults = true;
        break;
      }
      case 4: {
        FaultEvent ev = make_fault(FaultKind::kReorderStart, t0, grp);
        ev.disturb.reorder_prob = rng.uniform(0.05, 0.5);
        ev.disturb.reorder_hold =
            sim::milliseconds(1 + rng.uniform_int(0, 19));
        s.faults.push_back(ev);
        s.faults.push_back(make_fault(FaultKind::kReorderStop, t1, grp));
        break;
      }
      case 5: {
        FaultEvent ev = make_fault(FaultKind::kDuplicateStart, t0, grp);
        ev.disturb.dup_prob = rng.uniform(0.05, 0.3);
        s.faults.push_back(ev);
        s.faults.push_back(make_fault(FaultKind::kDuplicateStop, t1, grp));
        break;
      }
      case 6: {
        FaultEvent ev = make_fault(FaultKind::kCorruptStart, t0, grp);
        ev.disturb.corrupt_prob = rng.uniform(0.01, 0.2);
        s.faults.push_back(ev);
        s.faults.push_back(make_fault(FaultKind::kCorruptStop, t1, grp));
        lossy_faults = true;  // a corrupted probe/update is a lost one
        break;
      }
      case 7: {
        FaultEvent ev = make_fault(FaultKind::kControlLossStart, t0, grp);
        ev.disturb.control_loss_prob = rng.uniform(0.1, 0.4);
        s.faults.push_back(ev);
        s.faults.push_back(
            make_fault(FaultKind::kControlLossStop, t1, grp));
        lossy_faults = true;
        break;
      }
      case 8: {
        FaultEvent ev = make_fault(FaultKind::kJitterStart, t0, grp);
        ev.disturb.jitter = sim::milliseconds(1 + rng.uniform_int(0, 19));
        s.faults.push_back(ev);
        s.faults.push_back(make_fault(FaultKind::kJitterStop, t1, grp));
        break;
      }
      case 9: {
        // Trunk flap: the whole group loses its path to the backbone,
        // and routes take a reconvergence window to settle after it
        // heals (packets blackholed at the router meanwhile).
        s.faults.push_back(make_fault(FaultKind::kTrunkDown, t0, grp));
        FaultEvent up = make_fault(FaultKind::kTrunkUp, t1, grp);
        up.delay = sim::milliseconds(rng.uniform_int(0, 40));
        s.faults.push_back(up);
        lossy_faults = true;
        path_faults = true;
        break;
      }
      default: {
        // 802.11-style fade window: correlated burst loss with
        // SNR-like periodic modulation of the fade-entry probability.
        FaultEvent ev = make_fault(FaultKind::kWirelessStart, t0, grp);
        ev.wireless.p_good_bad = rng.uniform(0.002, 0.03);
        ev.wireless.mean_burst = rng.uniform(2.0, 8.0);
        ev.wireless.loss_bad = rng.uniform(0.5, 1.0);
        ev.wireless.snr_depth = rng.uniform(0.0, 0.8);
        ev.wireless.snr_period =
            sim::milliseconds(100 + rng.uniform_int(0, 900));
        s.faults.push_back(ev);
        s.faults.push_back(make_fault(FaultKind::kWirelessStop, t1, grp));
        lossy_faults = true;
        break;
      }
    }
  }

  // Hierarchical repair: only meaningful when some repairer would have
  // children, i.e. a group with at least two receivers.
  bool any_multi_group = false;
  for (int n : s.group_receivers) any_multi_group |= n >= 2;
  if (any_multi_group && rng.chance(0.35)) {
    s.hierarchy = true;
    // Sometimes kill a repairer mid-stream (paired with a restart, like
    // every crash): its children must fail over to the sender and the
    // subtree must still deliver the full stream.
    if (rng.chance(0.5)) {
      std::size_t first_of_group = 0;
      const auto victim_group =
          static_cast<std::size_t>(rng.uniform_int(0, ngroups - 1));
      for (std::size_t g = 0; g < victim_group; ++g) {
        first_of_group += static_cast<std::size_t>(s.group_receivers[g]);
      }
      const sim::SimTime t0 =
          sim::milliseconds(60 + rng.uniform_int(0, 250));
      const sim::SimTime t1 =
          t0 + sim::milliseconds(40 + rng.uniform_int(0, 200));
      s.faults.push_back(
          make_fault(FaultKind::kReceiverCrash, t0, first_of_group));
      s.faults.push_back(
          make_fault(FaultKind::kReceiverRestart, t1, first_of_group));
      lossy_faults = true;
    }
  }

  // Membership churn: late joins (URG resync to the live stream) and
  // clean leaves, at most one event per receiver so the per-receiver
  // open/close schedule stays unambiguous.
  const int nchurn = static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < nchurn; ++i) {
    ChurnEvent ev;
    ev.receiver =
        static_cast<std::size_t>(rng.uniform_int(0, receivers - 1));
    ev.join = rng.chance(0.5);
    ev.at = sim::milliseconds(ev.join ? 20 + rng.uniform_int(0, 280)
                                      : 50 + rng.uniform_int(0, 350));
    bool dup = false;
    for (const ChurnEvent& c : s.churn) {
      if (c.receiver == ev.receiver) dup = true;
    }
    if (!dup) s.churn.push_back(ev);
  }
  // A churned receiver has its own open/close timeline; crashing or
  // flapping the same receiver would entangle the two schedules into
  // scenarios no protocol could be expected to survive (e.g. crash
  // before a late join). Keep receiver-scoped faults off churned nodes.
  if (!s.churn.empty()) {
    std::erase_if(s.faults, [&s](const FaultEvent& ev) {
      if (!receiver_scoped(ev.kind)) return false;
      for (const ChurnEvent& c : s.churn) {
        if (c.receiver == ev.target) return true;
      }
      return false;
    });
  }

  // Path-breaking faults: arm the receivers' stalled-data watchdog so
  // the re-graft path is exercised whenever the tree is repaired.
  if (path_faults) {
    s.data_stall_timeout = sim::milliseconds(200 + rng.uniform_int(0, 800));
  }
  // Flash-crowd admission batching: the t=0 JOIN burst (every receiver
  // opens at once) plus churn joins exercise the multicast-response
  // path under a low threshold.
  if (rng.chance(0.3)) {
    s.join_batch_threshold = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
  }

  // Faults that can silence a member's feedback for a while force the
  // paper-faithful stall policy: under kEvict a generated partition
  // could legitimately evict a member mid-blackout, and the resulting
  // NAK_ERR would read as an oracle failure. A member is dead only
  // after kMemberTimeout (5 s) of silence, longer than any blackout
  // drawn above, but the rule stays so that every pinned seed keeps its
  // spec. Pure reorder/duplicate/jitter never destroy packets, so any
  // policy must survive them. Hierarchy forces kStall too (see
  // ChaosSpec::hierarchy).
  if (lossy_faults || s.hierarchy) {
    s.eviction = proto::EvictionPolicy::kStall;
  } else {
    switch (rng.uniform_int(0, 3)) {
      case 2: s.eviction = proto::EvictionPolicy::kEvict; break;
      case 3: s.eviction = proto::EvictionPolicy::kRmcFallback; break;
      default: s.eviction = proto::EvictionPolicy::kStall; break;
    }
  }
  return s;
}

ChaosSpec generate_mem_spec(std::uint64_t seed) {
  // Appends to the base spec from a *separate* RNG substream, so the
  // base generator's draw sequence — and with it every pinned chaos
  // seed in tests and CI — stays bit-identical to pre-§16 builds.
  ChaosSpec s = generate_spec(seed);
  sim::Rng rng(sim::substream_seed(seed, "chaos/mem"));
  // Budget sized so steady-state occupancy (send window + reassembly +
  // caches) fits the full budget with headroom: only the squeeze /
  // alloc-fail windows below bite, and they are paired — survivable by
  // construction, like every other generated fault.
  s.mem_budget =
      static_cast<std::uint64_t>(s.kernel_buf) * 4 + (512u * 1024);
  const sim::SimTime t0 = sim::milliseconds(50 + rng.uniform_int(0, 250));
  const sim::SimTime t1 = t0 + sim::milliseconds(30 + rng.uniform_int(0, 200));
  FaultEvent squeeze = make_fault(FaultKind::kMemPressureStart, t0, 0);
  squeeze.mem_fraction = rng.uniform(0.4, 0.9);
  s.faults.push_back(squeeze);
  s.faults.push_back(make_fault(FaultKind::kMemPressureStop, t1, 0));
  if (rng.chance(0.5)) {
    const sim::SimTime a0 = sim::milliseconds(50 + rng.uniform_int(0, 250));
    const sim::SimTime a1 =
        a0 + sim::milliseconds(30 + rng.uniform_int(0, 200));
    FaultEvent af = make_fault(FaultKind::kAllocFailStart, a0, 0);
    af.alloc_fail_prob = rng.uniform(0.02, 0.15);
    s.faults.push_back(af);
    s.faults.push_back(make_fault(FaultKind::kAllocFailStop, a1, 0));
  }
  s.eviction = proto::EvictionPolicy::kStall;
  return s;
}

ChaosSpec generate_soak_spec(std::uint64_t seed) {
  sim::Rng rng(sim::substream_seed(seed, "chaos/soak"));
  ChaosSpec s;
  s.seed = seed;
  s.network_bps = rng.chance(0.5) ? 10e6 : 100e6;
  s.file_bytes = (1024u * 1024) << rng.uniform_int(0, 2);  // 1M .. 4M
  s.kernel_buf = (128u * 1024) << rng.uniform_int(0, 2);   // 128K .. 512K
  s.eviction = proto::EvictionPolicy::kStall;
  s.time_limit = sim::seconds(900);
  s.data_stall_timeout = sim::milliseconds(500 + rng.uniform_int(0, 1500));
  s.join_batch_threshold = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));

  const int ngroups = rng.chance(0.5) ? 2 : 1;
  for (int g = 0; g < ngroups; ++g) {
    s.group_kind.push_back(static_cast<int>(rng.uniform_int(0, 2)));
    s.group_receivers.push_back(static_cast<int>(2 + rng.uniform_int(0, 2)));
  }
  const auto receivers = static_cast<std::int64_t>(s.receiver_count());

  // Trunk-flap train: repeated down/up with a reconvergence window,
  // spread across the whole (slowed-down) transfer. Long blackouts are
  // event-sparse, so they buy sim-hours cheaply.
  const int nflaps = 2 + static_cast<int>(rng.uniform_int(0, 3));
  sim::SimTime t = sim::seconds(1 + rng.uniform_int(0, 3));
  for (int k = 0; k < nflaps; ++k) {
    const auto grp =
        static_cast<std::size_t>(rng.uniform_int(0, ngroups - 1));
    const sim::SimTime down =
        sim::milliseconds(500 + rng.uniform_int(0, 4500));
    s.faults.push_back(make_fault(FaultKind::kTrunkDown, t, grp));
    FaultEvent up = make_fault(FaultKind::kTrunkUp, t + down, grp);
    up.delay = sim::milliseconds(rng.uniform_int(0, 80));
    s.faults.push_back(up);
    t += down + sim::seconds(3 + rng.uniform_int(0, 9));
  }
  // Receiver link flaps.
  const int nlink = static_cast<int>(rng.uniform_int(0, 2));
  for (int k = 0; k < nlink; ++k) {
    const auto rcv =
        static_cast<std::size_t>(rng.uniform_int(0, receivers - 1));
    const sim::SimTime t0 = sim::seconds(2 + rng.uniform_int(0, 20));
    const sim::SimTime dur =
        sim::milliseconds(200 + rng.uniform_int(0, 2800));
    s.faults.push_back(make_fault(FaultKind::kLinkDown, t0, rcv));
    s.faults.push_back(make_fault(FaultKind::kLinkUp, t0 + dur, rcv));
  }
  // Wireless fade windows.
  const int nfade = 1 + static_cast<int>(rng.uniform_int(0, 1));
  for (int k = 0; k < nfade; ++k) {
    const auto grp =
        static_cast<std::size_t>(rng.uniform_int(0, ngroups - 1));
    const sim::SimTime t0 = sim::seconds(1 + rng.uniform_int(0, 15));
    const sim::SimTime dur = sim::seconds(3 + rng.uniform_int(0, 12));
    FaultEvent ev = make_fault(FaultKind::kWirelessStart, t0, grp);
    ev.wireless.p_good_bad = rng.uniform(0.002, 0.02);
    ev.wireless.mean_burst = rng.uniform(2.0, 6.0);
    ev.wireless.loss_bad = rng.uniform(0.5, 0.9);
    ev.wireless.snr_depth = rng.uniform(0.2, 0.8);
    ev.wireless.snr_period = sim::milliseconds(200 + rng.uniform_int(0, 1800));
    s.faults.push_back(ev);
    s.faults.push_back(make_fault(FaultKind::kWirelessStop, t0 + dur, grp));
  }
  // Membership churn spread across the run.
  const int nchurn = 1 + static_cast<int>(rng.uniform_int(0, 3));
  for (int k = 0; k < nchurn; ++k) {
    ChurnEvent ev;
    ev.receiver =
        static_cast<std::size_t>(rng.uniform_int(0, receivers - 1));
    ev.join = rng.chance(0.5);
    ev.at = sim::seconds(1 + rng.uniform_int(0, 25));
    bool dup = false;
    for (const ChurnEvent& c : s.churn) {
      if (c.receiver == ev.receiver) dup = true;
    }
    if (!dup) s.churn.push_back(ev);
  }
  // Same rule as generate_spec: receiver-scoped faults stay off
  // churned receivers.
  std::erase_if(s.faults, [&s](const FaultEvent& ev) {
    if (!receiver_scoped(ev.kind)) return false;
    for (const ChurnEvent& c : s.churn) {
      if (c.receiver == ev.target) return true;
    }
    return false;
  });
  return s;
}

Scenario to_scenario(const ChaosSpec& spec) {
  Scenario sc;
  sc.name = "chaos-" + std::to_string(spec.seed);
  sc.topo.network_bps = spec.network_bps;
  sc.topo.seed = sim::substream_seed(spec.seed, "topo");
  for (std::size_t g = 0; g < spec.group_kind.size(); ++g) {
    const int n = spec.group_receivers[g];
    switch (spec.group_kind[g]) {
      case 0: sc.topo.groups.push_back(net::group_a(n)); break;
      case 1: sc.topo.groups.push_back(net::group_b(n)); break;
      default: sc.topo.groups.push_back(net::group_c(n)); break;
    }
  }
  sc.proto.sndbuf = spec.kernel_buf;
  sc.proto.rcvbuf = spec.kernel_buf;
  sc.proto.eviction_policy = spec.eviction;
  sc.proto.data_stall_timeout = spec.data_stall_timeout;
  sc.proto.join_batch_threshold = spec.join_batch_threshold;
  sc.workload.file_bytes = spec.file_bytes;
  sc.time_limit = spec.time_limit;
  sc.seed = spec.seed;
  sc.faults.events = spec.faults;
  sc.churn = spec.churn;
  sc.hierarchy.enabled = spec.hierarchy;
  sc.mem_budget = spec.mem_budget;
  sc.trace.enabled = true;
  sc.trace.ring_capacity = kChaosTraceRecords;
  return sc;
}

ChaosVerdict judge_result(const ChaosSpec& spec, const RunResult& res) {
  ChaosVerdict v;
  const auto fail = [&v](std::string why) {
    if (v.ok) {
      v.ok = false;
      v.failure = std::move(why);
    }
  };
  if (!res.sender_finished) {
    fail("sender did not finish within the deadline (window-stall "
         "deadlock?)");
  }
  if (res.survivors_completed != res.survivor_count) {
    fail(std::to_string(res.survivor_count - res.survivors_completed) +
         " of " + std::to_string(res.survivor_count) +
         " surviving receivers missing stream bytes");
  }
  if (res.any_stream_error) fail("receiver reported a stream error");
  if (!res.verify_ok) fail("delivered byte pattern failed verification");
  // Counts one transfer makes exact: each byte is released once, and a
  // receiver that never crashed or churned delivers the whole stream.
  if (res.sender_finished && res.sender.bytes_released != spec.file_bytes) {
    fail("release drift: released " +
         std::to_string(res.sender.bytes_released) + " of " +
         std::to_string(spec.file_bytes) + " stream bytes");
  }
  if (spec.eviction == proto::EvictionPolicy::kStall &&
      res.sender.nak_errs_sent != 0) {
    fail("NAK_ERR sent under kStall");
  }
  for (std::size_t i = 0; i < res.per_receiver.size(); ++i) {
    const bool crashed =
        std::ranges::any_of(spec.faults, [i](const FaultEvent& f) {
          return f.kind == FaultKind::kReceiverCrash && f.target == i;
        });
    const bool churned = std::ranges::any_of(
        spec.churn, [i](const ChurnEvent& c) { return c.receiver == i; });
    if (crashed || churned) continue;
    if (res.per_receiver[i].bytes_delivered != spec.file_bytes) {
      fail("delivery drift: receiver " + std::to_string(i) + " delivered " +
           std::to_string(res.per_receiver[i].bytes_delivered) + " of " +
           std::to_string(spec.file_bytes) + " bytes");
      break;
    }
  }
  if (spec.mem_budget > 0 && res.mem_peak_bytes > spec.mem_budget) {
    fail("memory budget exceeded: peak " +
         std::to_string(res.mem_peak_bytes) + " > budget " +
         std::to_string(spec.mem_budget));
  }
  // Packet conservation: every packet a host, NIC or router was offered
  // is passed on, dropped under a named reason, or still in flight.
  if (!res.sender_host.rx_conserved(res.sender_host_rx_in_cpu) ||
      !res.receiver_hosts.rx_conserved(res.receiver_hosts_rx_in_cpu)) {
    fail("unaccounted packet: host receive counts do not close");
  }
  if (!res.sender_host.tx_conserved(res.sender_host_tx_in_cpu) ||
      !res.receiver_hosts.tx_conserved(res.receiver_hosts_tx_in_cpu)) {
    fail("unaccounted packet: host transmit counts do not close");
  }
  if (!res.sender_nic.rx_conserved() || !res.receiver_nics.rx_conserved()) {
    fail("unaccounted packet: NIC receive counts do not close");
  }
  if (!res.sender_nic.tx_conserved(res.sender_nic_tx_queued) ||
      !res.receiver_nics.tx_conserved(res.receiver_nics_tx_queued)) {
    fail("unaccounted packet: NIC transmit counts do not close");
  }
  if (!res.sender_nic.rx_handed_off(res.sender_host.rx_offered,
                                    res.sender_nic_rx_held) ||
      !res.receiver_nics.rx_handed_off(res.receiver_hosts.rx_offered,
                                       res.receiver_nics_rx_held)) {
    fail("unaccounted packet: NIC hand-offs and host intake do not close");
  }
  if (!res.routers.ingress_conserved()) {
    fail("unaccounted packet: router ingress counts do not close");
  }
  if (res.trace_dropped > 0) {
    // A wrapped ring lost its oldest records, so the invariants below
    // would be checked against a partial history: fail rather than pass
    // a run nobody checked.
    fail("trace truncated: " + std::to_string(res.trace_dropped) +
         " records dropped, invariants unchecked");
  } else {
    trace::VerifyOptions opt;
    // Release safety is undefined under kRmcFallback by design
    // (dead-member releases are deliberate); see trace/verify.hpp.
    opt.check_release =
        spec.eviction != proto::EvictionPolicy::kRmcFallback;
    // Chaos scenarios legitimately delay NAK service (control loss,
    // reorder holds, blackouts up to ~5 s); the bound stays a liveness
    // floor, not a latency SLO.
    opt.nak_answer_bound = sim::seconds(15);
    // Invariant 5 (budget safety): every kAllocFail / kCacheEvict
    // record's ledger-live value must stay within the per-host budget.
    opt.mem_budget = spec.mem_budget;
    const trace::VerifyResult tv = trace::verify(res.trace_records, opt);
    if (!tv.ok) {
      fail("trace invariant violated: " +
           (tv.violations.empty() ? std::string("(no detail)")
                                  : tv.violations.front()));
    }
  }
  return v;
}

ChaosVerdict judge(const ChaosSpec& spec) {
  try {
    return judge_result(spec, run_transfer(to_scenario(spec)));
  } catch (const std::exception& e) {
    ChaosVerdict v;
    v.ok = false;
    v.failure = std::string("simulation threw: ") + e.what();
    return v;
  }
}

std::vector<ChaosOutcome> sweep(std::uint64_t start, int count,
                                unsigned threads, bool mem) {
  std::vector<ChaosSpec> specs;
  std::vector<Scenario> cells;
  specs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::uint64_t seed = start + static_cast<std::uint64_t>(i);
    specs.push_back(mem ? generate_mem_spec(seed) : generate_spec(seed));
    cells.push_back(to_scenario(specs.back()));
  }
  std::vector<ChaosOutcome> out(specs.size());
  try {
    const ParallelRunner runner(threads);
    const std::vector<RunResult> results = runner.run_all(cells);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out[i].seed = specs[i].seed;
      out[i].verdict = judge_result(specs[i], results[i]);
    }
  } catch (const std::exception&) {
    // A cell threw (run_all rethrows after the pool drains): fall back
    // to serial judging, which attributes the exception to its seed.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      out[i].seed = specs[i].seed;
      out[i].verdict = judge(specs[i]);
    }
  }
  return out;
}

// --- Serialization ---------------------------------------------------

namespace {

constexpr char kMagic[] = "hrmc-chaos-repro v1";

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string serialize_spec(const ChaosSpec& spec) {
  std::ostringstream os;
  os << kMagic << "\n";
  os << "seed " << spec.seed << "\n";
  os << "network_bps " << fmt_double(spec.network_bps) << "\n";
  os << "file_bytes " << spec.file_bytes << "\n";
  os << "kernel_buf " << spec.kernel_buf << "\n";
  os << "eviction " << static_cast<int>(spec.eviction) << "\n";
  os << "time_limit " << spec.time_limit << "\n";
  os << "data_stall_timeout " << spec.data_stall_timeout << "\n";
  os << "join_batch_threshold " << spec.join_batch_threshold << "\n";
  // Emitted only when set: repro files without hierarchy stay readable
  // by parsers predating the field (which reject unknown keys).
  if (spec.hierarchy) os << "hierarchy 1\n";
  if (spec.mem_budget > 0) os << "mem_budget " << spec.mem_budget << "\n";
  for (std::size_t g = 0; g < spec.group_kind.size(); ++g) {
    os << "group " << spec.group_kind[g] << " " << spec.group_receivers[g]
       << "\n";
  }
  for (const FaultEvent& ev : spec.faults) {
    os << "fault " << static_cast<int>(ev.kind) << " " << ev.at << " "
       << ev.target << " " << fmt_double(ev.ge.p_good_bad) << " "
       << fmt_double(ev.ge.p_bad_good) << " " << fmt_double(ev.ge.loss_good)
       << " " << fmt_double(ev.ge.loss_bad) << " "
       << fmt_double(ev.disturb.reorder_prob) << " "
       << ev.disturb.reorder_hold << " " << fmt_double(ev.disturb.dup_prob)
       << " " << fmt_double(ev.disturb.corrupt_prob) << " "
       << fmt_double(ev.disturb.control_loss_prob) << " "
       << ev.disturb.jitter << " " << ev.delay << " "
       << fmt_double(ev.wireless.p_good_bad) << " "
       << fmt_double(ev.wireless.mean_burst) << " "
       << fmt_double(ev.wireless.loss_good) << " "
       << fmt_double(ev.wireless.loss_bad) << " "
       << fmt_double(ev.wireless.snr_depth) << " " << ev.wireless.snr_period
       << " " << fmt_double(ev.wireless.snr_phase) << " "
       << fmt_double(ev.mem_fraction) << " "
       << fmt_double(ev.alloc_fail_prob) << "\n";
  }
  for (const ChurnEvent& ev : spec.churn) {
    os << "churn " << ev.at << " " << ev.receiver << " " << (ev.join ? 1 : 0)
       << "\n";
  }
  return os.str();
}

std::optional<ChaosSpec> parse_spec(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kMagic) return std::nullopt;
  ChaosSpec s;
  s.group_kind.clear();
  s.group_receivers.clear();
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "seed") {
      ls >> s.seed;
    } else if (key == "network_bps") {
      ls >> s.network_bps;
    } else if (key == "file_bytes") {
      ls >> s.file_bytes;
    } else if (key == "kernel_buf") {
      ls >> s.kernel_buf;
    } else if (key == "eviction") {
      int e = 0;
      ls >> e;
      if (e < 0 || e > 2) return std::nullopt;
      s.eviction = static_cast<proto::EvictionPolicy>(e);
    } else if (key == "time_limit") {
      ls >> s.time_limit;
    } else if (key == "data_stall_timeout") {
      ls >> s.data_stall_timeout;
    } else if (key == "join_batch_threshold") {
      ls >> s.join_batch_threshold;
    } else if (key == "mem_budget") {
      ls >> s.mem_budget;
    } else if (key == "hierarchy") {
      int h = 0;
      ls >> h;
      if (ls.fail() || (h != 0 && h != 1)) return std::nullopt;
      s.hierarchy = h == 1;
    } else if (key == "churn") {
      ChurnEvent ev;
      int join = 0;
      ls >> ev.at >> ev.receiver >> join;
      if (ls.fail() || (join != 0 && join != 1)) return std::nullopt;
      ev.join = join == 1;
      s.churn.push_back(ev);
    } else if (key == "group") {
      int kind = 0, n = 0;
      ls >> kind >> n;
      if (ls.fail() || kind < 0 || kind > 2 || n < 1) return std::nullopt;
      s.group_kind.push_back(kind);
      s.group_receivers.push_back(n);
    } else if (key == "fault") {
      int kind = 0;
      FaultEvent ev;
      ls >> kind >> ev.at >> ev.target >> ev.ge.p_good_bad >>
          ev.ge.p_bad_good >> ev.ge.loss_good >> ev.ge.loss_bad >>
          ev.disturb.reorder_prob >> ev.disturb.reorder_hold >>
          ev.disturb.dup_prob >> ev.disturb.corrupt_prob >>
          ev.disturb.control_loss_prob >> ev.disturb.jitter;
      if (ls.fail() || kind < 0 ||
          kind > static_cast<int>(FaultKind::kAllocFailStop)) {
        return std::nullopt;
      }
      // Extension tail (reconvergence delay + wireless profile), absent
      // in repros written before those axes existed: all-or-nothing —
      // a fault line either stops at the jitter field or carries the
      // full tail.
      if (ls >> ev.delay) {
        ls >> ev.wireless.p_good_bad >> ev.wireless.mean_burst >>
            ev.wireless.loss_good >> ev.wireless.loss_bad >>
            ev.wireless.snr_depth >> ev.wireless.snr_period >>
            ev.wireless.snr_phase;
        if (ls.fail()) return std::nullopt;
        // Second extension tail (memory-pressure axes): same
        // all-or-nothing rule, nested — a line carrying it must carry
        // both fields.
        if (ls >> ev.mem_fraction) {
          ls >> ev.alloc_fail_prob;
          if (ls.fail()) return std::nullopt;
        } else {
          ls.clear();
        }
      } else {
        ls.clear();
      }
      ev.kind = static_cast<FaultKind>(kind);
      s.faults.push_back(ev);
    } else {
      return std::nullopt;  // unknown key: refuse to half-parse a repro
    }
    if (ls.fail()) return std::nullopt;
  }
  if (s.group_kind.empty()) return std::nullopt;
  return s;
}

// --- Shrinking -------------------------------------------------------

namespace {

/// Removes fault event `i` and, if it has a recovery partner targeting
/// the same entity, the partner too.
void remove_fault_pair(ChaosSpec& s, std::size_t i) {
  const FaultEvent removed = s.faults[i];
  s.faults.erase(s.faults.begin() + static_cast<std::ptrdiff_t>(i));
  const FaultKind partner = partner_of(removed.kind);
  for (std::size_t j = 0; j < s.faults.size(); ++j) {
    if (s.faults[j].kind == partner &&
        s.faults[j].target == removed.target) {
      s.faults.erase(s.faults.begin() + static_cast<std::ptrdiff_t>(j));
      return;
    }
  }
}

/// Drops the last receiver (from the last group; empty groups are
/// erased) and every fault event whose target the smaller topology no
/// longer has — a config-sanitized spec never trips FaultInjector's
/// arm-time validation, so a shrink failure is always a protocol
/// failure, never a typo'd scenario.
bool drop_last_receiver(ChaosSpec& s) {
  if (s.receiver_count() <= 1) return false;
  s.group_receivers.back() -= 1;
  if (s.group_receivers.back() == 0) {
    s.group_receivers.pop_back();
    s.group_kind.pop_back();
  }
  const std::size_t receivers = s.receiver_count();
  const std::size_t groups = s.group_kind.size();
  std::erase_if(s.faults, [&](const FaultEvent& ev) {
    return ev.target >= (receiver_scoped(ev.kind) ? receivers : groups);
  });
  std::erase_if(s.churn, [&](const ChurnEvent& ev) {
    return ev.receiver >= receivers;
  });
  return true;
}

/// Index of the recovery event paired with onset `i` (same target,
/// partner kind, not earlier in time); nullopt when `i` is not an onset
/// or its partner is gone.
std::optional<std::size_t> partner_index(const ChaosSpec& s, std::size_t i) {
  const FaultKind partner = partner_of(s.faults[i].kind);
  for (std::size_t j = 0; j < s.faults.size(); ++j) {
    if (j == i) continue;
    if (s.faults[j].kind == partner &&
        s.faults[j].target == s.faults[i].target &&
        s.faults[j].at >= s.faults[i].at) {
      return j;
    }
  }
  return std::nullopt;
}

}  // namespace

ChaosSpec shrink(const ChaosSpec& failing, int max_runs) {
  ChaosSpec best = failing;
  int runs = 0;
  const auto still_fails = [&](const ChaosSpec& cand) {
    if (runs >= max_runs) return false;
    ++runs;
    return !judge(cand).ok;
  };
  bool progress = true;
  while (progress && runs < max_runs) {
    progress = false;
    // Pass 1: drop fault events, recovery pairs together.
    for (std::size_t i = 0; i < best.faults.size() && runs < max_runs;) {
      ChaosSpec cand = best;
      remove_fault_pair(cand, i);
      if (still_fails(cand)) {
        best = std::move(cand);
        progress = true;  // same index now names the next event
      } else {
        ++i;
      }
    }
    // Pass 1b: minimize surviving fault windows — walk each pair's
    // start/stop toward each other (halving the interval), keeping a
    // candidate only while the oracle still fails. A repro that trips
    // on a 400 ms blackout often still trips at 50 ms, and the tight
    // window localizes the bug in the timeline.
    for (std::size_t i = 0; i < best.faults.size() && runs < max_runs;
         ++i) {
      const auto j = partner_index(best, i);
      if (!j) continue;
      while (runs < max_runs) {
        const sim::SimTime window = best.faults[*j].at - best.faults[i].at;
        if (window < sim::milliseconds(2)) break;
        ChaosSpec cand = best;
        cand.faults[*j].at = best.faults[i].at + window / 2;
        if (still_fails(cand)) {  // pull the recovery earlier
          best = std::move(cand);
          progress = true;
          continue;
        }
        cand = best;
        cand.faults[i].at = best.faults[*j].at - window / 2;
        if (still_fails(cand)) {  // push the onset later
          best = std::move(cand);
          progress = true;
          continue;
        }
        break;
      }
    }
    // Pass 1c: drop churn events one at a time.
    for (std::size_t i = 0; i < best.churn.size() && runs < max_runs;) {
      ChaosSpec cand = best;
      cand.churn.erase(cand.churn.begin() + static_cast<std::ptrdiff_t>(i));
      if (still_fails(cand)) {
        best = std::move(cand);
        progress = true;
      } else {
        ++i;
      }
    }
    // Pass 1d: drop the repair hierarchy — a repro that still fails
    // with flat feedback localizes the bug outside the repairer.
    if (best.hierarchy && runs < max_runs) {
      ChaosSpec cand = best;
      cand.hierarchy = false;
      if (still_fails(cand)) {
        best = std::move(cand);
        progress = true;
      }
    }
    // Pass 2: shrink the stream.
    while (best.file_bytes > 4096 && runs < max_runs) {
      ChaosSpec cand = best;
      cand.file_bytes /= 2;
      if (!still_fails(cand)) break;
      best = std::move(cand);
      progress = true;
    }
    // Pass 3: shrink the topology.
    while (runs < max_runs) {
      ChaosSpec cand = best;
      if (!drop_last_receiver(cand)) break;
      if (!still_fails(cand)) break;
      best = std::move(cand);
      progress = true;
    }
  }
  return best;
}

}  // namespace hrmc::harness
