// Experiment harness: declarative scenarios mapped onto the simulator.
//
// A Scenario is (network, protocol config, workload); run_transfer()
// wires up one H-RMC sender plus one receiver per topology host, runs
// the file transfer to completion, and returns every statistic the
// paper's figures are built from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/apps.hpp"
#include "hrmc/config.hpp"
#include "hrmc/stats.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"
#include "trace/trace.hpp"

namespace hrmc::harness {

struct Workload {
  std::uint64_t file_bytes = 10 * 1024 * 1024;
  bool disk_source = false;  ///< disk-to-disk test when both set
  bool disk_sink = false;
  /// Application read-rate cap in bits/s; 0 = always ready. The paper's
  /// simulated application consumes at a rate that does not scale with
  /// the network (§5.2) — 64 Mbps reproduces the 100 Mbps-era mismatch.
  double sink_read_rate_bps = 0.0;
  std::size_t chunk = 64 * 1024;
};

/// Observability knobs for a run. `enabled` gives every engine domain
/// its own TraceRing (one for a serial run), written by that domain's
/// traced components (sender, receivers, routers, NICs, fault injector)
/// under the trace.hpp host-id convention and merged by timestamp after
/// the run; `sample_period > 0` additionally records a SamplePoint at
/// every multiple of the period, on either engine. Neither changes the
/// run: trace emission is a passive store, and samples are read where
/// the engine already checks for completion, scheduling no event.
struct TraceOptions {
  bool enabled = false;
  std::size_t ring_capacity = 1 << 18;  ///< records per ring (32 B each)
  sim::SimTime sample_period = 0;       ///< 0 = no time series
};

/// Membership churn: one receiver joining or leaving the *running*
/// stream. A join opens the receiver at `at` via the URG resync path
/// (late-join semantics: it anchors at the sender's current position
/// and completes the tail); a leave calls close() at `at` (clean LEAVE
/// handshake — contrast with crash faults, which just go silent).
struct ChurnEvent {
  sim::SimTime at = 0;
  std::size_t receiver = 0;
  bool join = false;  ///< true = late join, false = leave
};

/// Hierarchical repair (million-receiver scaling extension): designate
/// one receiver per router subtree as the local repairer. Its siblings
/// send feedback to it instead of the sender; it answers their NAKs
/// from a local packet cache and collapses their UPDATEs into one
/// AGG_UPDATE per subtree. The repairer is the first receiver of each
/// topology group that is neither modeled nor a late joiner; its
/// group-mates become its children.
struct HierarchyOptions {
  bool enabled = false;
};

/// Replace one receiver slot with a ModeledReceiver: a statistical
/// stand-in for `population` leaves behind that slot's subtree, each
/// independently losing packets at `leaf_loss` on top of the simulated
/// network's own drops. Modeled slots have no sink application; run
/// completion uses ModeledReceiver::complete() instead.
struct ModeledGroup {
  std::size_t receiver = 0;
  std::uint32_t population = 1000;
  double leaf_loss = 0.0;
};

/// Multi-core sharded execution (sim::ShardEngine): the topology is cut
/// into conservative-time domains — the sender/backbone in domain 0,
/// group g's router subtree in domain 1 + g — advanced in lockstep
/// epochs whose width is the trunk's minimum packet service time. The
/// result is bit-identical at every thread count (same per-domain event
/// order, PRNG draws, trace records). Both engines share one scenario
/// wiring, so every Scenario field means the same on either; the serial
/// engine (enabled = false) can differ from the sharded schedule only
/// in how same-timestamp events in different domains interleave.
struct ShardOptions {
  bool enabled = false;
  /// Worker threads, taken as-is (0 counts as 1). The sharded engine's
  /// results do not depend on it.
  unsigned threads = 1;
};

struct Scenario {
  std::string name = "scenario";
  net::TopologyConfig topo;
  proto::Config proto;
  Workload workload;
  sim::SimTime time_limit = sim::seconds(3600);
  std::uint64_t seed = 1;
  /// Injected failures (crashes, flaps, partitions, burst loss,
  /// trunk flaps, wireless fades). Empty by default; an empty plan adds
  /// no events and no RNG draws, so fault-free runs are bit-identical
  /// with or without this field.
  net::FaultPlan faults;
  /// Membership churn plan (empty = all receivers open at t = 0 and
  /// stay — bit-identical to runs predating this field). A receiver
  /// with a join event does not open at t = 0; a receiver with a leave
  /// event is no longer expected to complete the stream.
  std::vector<ChurnEvent> churn;
  /// Local-repairer hierarchy (off = flat feedback, bit-identical to
  /// runs predating this field).
  HierarchyOptions hierarchy;
  /// Modeled receiver populations (empty = every slot is a real
  /// receiver — bit-identical to runs predating this field).
  std::vector<ModeledGroup> modeled;
  /// Per-host memory budget in bytes (kern::MemAccountant, DESIGN.md
  /// §16). 0 = no budget; an accountant is still installed when the
  /// fault plan contains mem-pressure / alloc-fail windows (they need
  /// one to act on). 0 with a mem-fault-free plan installs nothing —
  /// bit-identical to runs predating this field. Sharded runs install
  /// one accountant per domain; every host's ledger lives in its own
  /// domain's, so the budget means the same on both engines.
  std::uint64_t mem_budget = 0;
  TraceOptions trace;
  /// Sharded multi-core execution (off = one serial scheduler,
  /// bit-identical to runs predating this field).
  ShardOptions shard;
};

/// One sample of the quantities the paper plots over time (Figs 11 and
/// 13), taken at `t` = k * TraceOptions::sample_period. Counters
/// (naks_received, ...) are cumulative as of t; per-interval activity is
/// the difference of consecutive samples.
struct SamplePoint {
  sim::SimTime t = 0;
  double rate_bps = 0;              ///< sender's advertised rate (bytes/s)
  double send_window_bytes = 0;     ///< send-buffer occupancy
  double recv_occupancy_bytes = 0;  ///< max over receivers
  double recv_region = 0;           ///< worst flow-control region (0/1/2)
  double nak_list_ranges = 0;       ///< pending NAK ranges, all receivers
  double update_period_jiffies = 0; ///< max over receivers
  // Cumulative feedback counters at the sender.
  double naks_received = 0;
  double rate_requests_received = 0;
  double retransmissions = 0;

  bool operator==(const SamplePoint&) const = default;
};

struct RunResult {
  bool completed = false;  ///< every receiver got the stream in time
  bool sender_finished = false;
  sim::SimTime elapsed = 0;  ///< sender start -> last receiver complete
  double throughput_mbps = 0.0;
  bool verify_ok = true;
  bool any_stream_error = false;

  proto::SenderStats sender;
  proto::ReceiverStats receivers_total;  ///< summed over receivers
  std::vector<proto::ReceiverStats> per_receiver;

  // Network element counters: the sender's NIC, and the receivers' NICs
  // and all routers (backbone and group routers) each summed field-wise.
  // The *_tx_queued counts are what those NICs' tx rings still held when
  // the run stopped: in flight, not lost, for Nic::Counters::tx_conserved.
  // The *_rx_held counts are what their receive holds still held, for
  // Nic::Counters::rx_handed_off against the hosts' rx_offered.
  net::Nic::Counters sender_nic;
  net::Nic::Counters receiver_nics;
  net::Router::Counters routers;
  std::uint64_t sender_nic_tx_queued = 0;
  std::uint64_t receiver_nics_tx_queued = 0;
  std::uint64_t sender_nic_rx_held = 0;
  std::uint64_t receiver_nics_rx_held = 0;
  // Host counters: the sender's host, and the receivers' hosts summed
  // field-wise. The *_in_cpu counts are packets whose CPU work had not
  // completed when the run stopped, for Host::Counters' two laws.
  net::Host::Counters sender_host;
  net::Host::Counters receiver_hosts;
  std::uint64_t sender_host_rx_in_cpu = 0;
  std::uint64_t sender_host_tx_in_cpu = 0;
  std::uint64_t receiver_hosts_rx_in_cpu = 0;
  std::uint64_t receiver_hosts_tx_in_cpu = 0;

  // Million-receiver scaling metrics.
  std::uint64_t modeled_leaves = 0;       ///< Σ population over modeled slots
  std::uint64_t member_min_rescan_work = 0;  ///< members walked by rescans

  // Degradation metrics (fault scenarios). A "survivor" is a receiver
  // the fault plan never crashed, or crashed and later restarted.
  int survivor_count = 0;
  int survivors_completed = 0;

  // Memory-pressure robustness (DESIGN.md §16). The mem_* fields are
  // zero unless a kern::MemAccountant was installed (Scenario::mem_budget
  // or mem fault windows). The skbuff pool is per thread, so the skb_*
  // gauges are filled only when the run used one thread (the serial
  // engine, or the sharded engine at threads = 1) and are zero otherwise.
  std::uint64_t mem_peak_bytes = 0;   ///< highest single-host ledger seen
  std::uint64_t mem_alloc_fails = 0;  ///< accountant refusals, all hosts
  std::uint64_t mem_cache_evictions = 0;  ///< ooo + fec + repair evictions
  std::uint64_t skb_live_bytes_end = 0;   ///< skbuff bytes still referenced
  std::uint64_t skb_peak_bytes = 0;       ///< skbuff high-water mark (run)

  // Observability output (TraceOptions). Empty unless enabled.
  std::vector<trace::TraceRecord> trace_records;  ///< time-ordered
  std::uint64_t trace_dropped = 0;  ///< oldest records the ring overwrote
  std::vector<SamplePoint> samples;

  // Engine-level replay identity. events_executed and rng_digest
  // together pin a run's full schedule: the digest folds the end-state
  // of every RNG stream in the simulation (routers, NICs, receivers,
  // modeled populations, disk models) in a fixed component order, so
  // two runs that agree on both executed the same draws in the same
  // per-component order. The differential battery compares these — and
  // the trace rings — between serial and sharded executions.
  std::uint64_t events_executed = 0;
  std::uint64_t sched_compactions = 0;  ///< tombstone sweeps (all domains)
  std::uint64_t rng_digest = 0;

  // Sharded-engine accounting (zero on the serial engine).
  std::size_t shard_domains = 0;
  std::uint64_t shard_epochs = 0;
  std::uint64_t shard_handoffs = 0;
  std::uint64_t shard_handoff_bytes = 0;
  std::uint64_t shard_control_posts = 0;

  /// Fig 3 metric, percent.
  [[nodiscard]] double complete_info_pct() const {
    return sender.release_decisions == 0
               ? 100.0
               : 100.0 * static_cast<double>(
                             sender.releases_with_complete_info) /
                     static_cast<double>(sender.release_decisions);
  }
};

/// Runs one multicast file transfer described by `sc`, on the serial
/// engine or (sc.shard.enabled) the sharded one.
RunResult run_transfer(const Scenario& sc);

// --- Scenario builders -------------------------------------------------

/// All receivers on one LAN-like group A network: the experimental
/// testbed of §5.1 (1-3 receivers, 10/100 Mbps Ethernet).
Scenario lan_scenario(int receivers, double network_bps,
                      std::size_t kernel_buf, const Workload& wl,
                      std::uint64_t seed);

/// The simulation study's Tests 1-5 (Fig 14b) with `n` receivers spread
/// over characteristic groups A/B/C.
Scenario test_case_scenario(int test_case, int n, double network_bps,
                            std::size_t kernel_buf, const Workload& wl,
                            std::uint64_t seed);

/// The buffer sizes swept in every figure (bytes).
std::vector<std::size_t> buffer_sweep();           ///< 64K .. 1024K
std::vector<std::size_t> buffer_sweep_extended();  ///< 64K .. 4096K (Fig 13)

/// Pretty size label ("256K").
std::string buf_label(std::size_t bytes);

}  // namespace hrmc::harness
