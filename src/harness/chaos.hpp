// Deterministic chaos engine: an automated adversary for the protocol.
//
// The pipeline (DESIGN.md §11):
//
//   seed → generate_spec → to_scenario → run_transfer → judge (oracle)
//                                                         │ fail
//                                                 shrink ─┘
//                                                         │
//                                           serialize_spec → repro file
//
// A ChaosSpec is the *serializable* unit: a compact description of one
// randomized adversarial scenario — topology shape, traffic shape, and
// a FaultPlan of crashes, flaps, partitions, burst loss, and the
// disturbance kinds (reorder / duplicate / corrupt / control-loss /
// jitter). Everything downstream of the spec is deterministic:
// to_scenario() is a pure function and run_transfer() derives all
// randomness from the scenario seed, so the same spec always produces
// the same RunResult, bit for bit — which is what makes a shrunk repro
// file replayable.
//
// The reliability oracle (judge) asserts the paper's central claim
// under adversarial conditions: every receiver expected to survive
// delivers the full byte stream in order, the sender terminates within
// the scenario deadline (no window-stall deadlock), no receiver
// observes a stream error, the counts one transfer makes exact hold
// (bytes released, bytes delivered by each receiver that never crashed
// or churned, no NAK_ERR under kStall), and the run's complete trace
// passes trace::verify with zero violations. The soak driver and the
// sharded-engine differential judge with the same oracle.
//
// Scenario generation is *survivable by construction*: every crash is
// paired with a restart, every link-down with a link-up, every
// partition with a heal, and every disturbance with a stop — so an
// oracle failure is a protocol bug, never a scenario that merely asked
// the impossible. Connectivity faults force EvictionPolicy::kStall, so
// that probing pauses the window rather than evicting a member that a
// generated partition silenced. A member is dead only after
// kMemberTimeout (5 s) of silence, which outlasts every generated
// blackout, but the generator keeps forcing kStall so that every pinned
// seed keeps its spec (eviction behavior has its own deterministic
// tests).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "net/fault.hpp"

namespace hrmc::harness {

/// Serializable description of one chaos scenario.
struct ChaosSpec {
  std::uint64_t seed = 1;  ///< scenario RNG root (run_transfer seed)
  double network_bps = 10e6;
  std::uint64_t file_bytes = 64 * 1024;
  std::size_t kernel_buf = 256 * 1024;
  proto::EvictionPolicy eviction = proto::EvictionPolicy::kStall;
  sim::SimTime time_limit = sim::seconds(120);
  /// Characteristic-group kind per group: 0 = A, 1 = B, 2 = C
  /// (net::group_a/b/c delay and loss presets).
  std::vector<int> group_kind;
  std::vector<int> group_receivers;  ///< same length as group_kind
  std::vector<net::FaultEvent> faults;
  /// Membership churn plan (late joins / clean leaves mid-stream).
  std::vector<ChurnEvent> churn;
  /// Receiver stalled-data watchdog (Config::data_stall_timeout);
  /// enabled by the generator when the plan contains path-breaking
  /// faults so re-grafting after a repaired flap is exercised.
  sim::SimTime data_stall_timeout = 0;
  /// Flash-crowd admission batching (Config::join_batch_threshold).
  std::size_t join_batch_threshold = 0;
  /// Hierarchical repair: the first receiver of every group becomes its
  /// subtree's local repairer (Scenario::hierarchy defaults). Forces
  /// kStall: a dead or crashed repairer silences its children's
  /// feedback until failover, and eviction during that window would
  /// make the oracle test the generator, not the protocol.
  bool hierarchy = false;
  /// Per-host memory budget in bytes (Scenario::mem_budget). Set by the
  /// generator alongside mem-pressure / alloc-fail fault pairs; 0 keeps
  /// the run accountant-free unless the plan itself contains mem fault
  /// windows. Generated budgets are survivable by construction: the
  /// full budget covers steady-state occupancy (send window + reassembly
  /// + caches) with headroom, and only the paired squeeze window shrinks
  /// the *effective* budget — so an oracle failure under memory pressure
  /// is a degradation bug, never a scenario that asked the impossible.
  std::uint64_t mem_budget = 0;

  [[nodiscard]] std::size_t receiver_count() const {
    std::size_t n = 0;
    for (int r : group_receivers) n += static_cast<std::size_t>(r);
    return n;
  }
};

/// Oracle verdict for one run.
struct ChaosVerdict {
  bool ok = true;
  std::string failure;  ///< first violated property, human-readable
};

/// Outcome of one judged scenario in a sweep.
struct ChaosOutcome {
  std::uint64_t seed = 0;
  ChaosVerdict verdict;
};

/// Deterministically generates the scenario for `seed`. Same seed, same
/// spec — always.
ChaosSpec generate_spec(std::uint64_t seed);

/// Generates one long "moving network" segment for the soak driver
/// (examples/soak): a multi-megabyte stream over a topology subjected
/// to trunk-flap trains with route reconvergence, receiver link flaps,
/// wireless fade windows, and membership churn — survivable by
/// construction, like generate_spec, but stretched over tens of sim
/// seconds so accumulated segments add up to hours-equivalent sim time
/// cheaply (long blackouts are event-sparse).
ChaosSpec generate_soak_spec(std::uint64_t seed);

/// generate_spec plus a deterministically appended memory-pressure
/// regime (chaos --mem): a per-host budget, one guaranteed squeeze
/// window, and an optional alloc-fail window — so every seed in a mem
/// sweep actually exercises the DESIGN.md §16 degradation paths instead
/// of the ~2-in-13 category odds of the base generator. Forces
/// EvictionPolicy::kStall: pressure-driven evictions silence feedback
/// like loss does, and an eviction-policy NAK_ERR would make the oracle
/// test the generator, not the protocol.
ChaosSpec generate_mem_spec(std::uint64_t seed);

/// Pure mapping onto the experiment harness. Trace capture is enabled
/// (the oracle needs it for trace::verify), with a ring of 2^22 records
/// per engine domain.
Scenario to_scenario(const ChaosSpec& spec);

/// Applies the reliability oracle to a finished run. A run whose trace
/// ring wrapped fails: its invariants cannot be checked.
ChaosVerdict judge_result(const ChaosSpec& spec, const RunResult& res);

/// Runs the spec's scenario and judges it. Exceptions from the
/// simulator are caught and reported as oracle failures — a crash is
/// exactly what chaos hunts.
ChaosVerdict judge(const ChaosSpec& spec);

/// Sweeps seeds [start, start + count) through the oracle on a thread
/// pool (ParallelRunner semantics: bit-identical per cell, results in
/// input order). `mem` swaps the generator for generate_mem_spec.
std::vector<ChaosOutcome> sweep(std::uint64_t start, int count,
                                unsigned threads = 0, bool mem = false);

/// Self-contained text form ("hrmc-chaos-repro v1"). Doubles are
/// printed round-trip exact, so parse(serialize(s)) replays the same
/// simulation bit for bit.
std::string serialize_spec(const ChaosSpec& spec);

/// Parses a repro file's contents. nullopt on malformed input.
std::optional<ChaosSpec> parse_spec(const std::string& text);

/// Greedily minimizes a failing spec: drop fault events (recovery pairs
/// stay paired), shrink the stream, drop receivers — re-running after
/// each candidate edit and keeping it only while the oracle still
/// fails. `max_runs` bounds the re-run budget. Returns the smallest
/// still-failing spec found (at worst, the input).
ChaosSpec shrink(const ChaosSpec& failing, int max_runs = 200);

}  // namespace hrmc::harness
