// Protocol statistics, the raw material of every figure in §5.
//
// Each struct is a flat list of 64-bit counters and nothing else: runs
// compare them whole (operator==) and the harness sums them field-wise
// without naming a field (harness/scenario.cpp), so a counter added here
// is compared and folded with no other edit.
#pragma once

#include <cstdint>

namespace hrmc::proto {

struct SenderStats {
  // Transmission
  std::uint64_t data_packets_sent = 0;
  std::uint64_t data_bytes_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t retrans_bytes = 0;
  std::uint64_t keepalives_sent = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probe_rounds = 0;  ///< release attempts that had to probe
  /// Probes pushed to a later round by the per-round cap (a cold 10k
  /// table must not emit one 10k-packet burst).
  std::uint64_t probes_deferred = 0;

  // Feedback arriving at the sender (Fig 11/13/15b/16b count these)
  std::uint64_t naks_received = 0;
  std::uint64_t rate_requests_received = 0;
  std::uint64_t urgent_requests_received = 0;
  std::uint64_t updates_received = 0;
  /// Aggregated subtree UPDATEs (hierarchical repair): each carries the
  /// subtree's min next_expected and the member count it stands for.
  std::uint64_t agg_updates_received = 0;
  std::uint64_t joins_received = 0;
  std::uint64_t leaves_received = 0;

  // Failure detection / recovery (robustness extension)
  std::uint64_t probe_retries = 0;     ///< probes re-sent while unanswered
  std::uint64_t members_evicted = 0;   ///< dead members dropped (kEvict)
  std::uint64_t dead_member_releases = 0;  ///< kRmcFallback forced releases
  std::uint64_t resync_joins_received = 0;  ///< crash-restart rejoins
  /// Straggler feedback from tombstoned (recently departed) addresses,
  /// dropped instead of resurrecting the membership record.
  std::uint64_t ghost_feedback_ignored = 0;
  std::uint64_t join_batch_responses = 0;  ///< multicast flash-crowd replies
  std::uint64_t lacking_rebuilds = 0;  ///< full lacking-set recomputations
  /// Total time (SimTime ticks) the send window sat blocked past its
  /// hold time waiting for member information.
  std::int64_t window_stall_time = 0;

  // Reliability bookkeeping
  std::uint64_t nak_errs_sent = 0;  ///< RMC mode only: request past buffer
  // Wire-level hardening (chaos engine): malformed or impossible
  // feedback dropped instead of acted on.
  std::uint64_t naks_invalid = 0;   ///< NAK range beyond snd_nxt / empty
  std::uint64_t naks_stale = 0;     ///< NAK for data the member confirmed
  std::uint64_t feedback_clamped = 0;  ///< next_expected beyond snd_nxt

  // Fig 3 metric: buffer-release decisions and how many were taken with
  // complete receiver information already in hand.
  std::uint64_t release_decisions = 0;
  std::uint64_t releases_with_complete_info = 0;

  // Rate controller activity
  std::uint64_t rate_cuts = 0;
  std::uint64_t urgent_stops = 0;
  std::uint64_t slow_start_entries = 0;

  std::uint64_t packets_released = 0;
  std::uint64_t bytes_released = 0;
  std::uint64_t bad_packets = 0;  ///< checksum / parse failures

  // FEC extension (§6 future work (4))
  std::uint64_t fec_packets_sent = 0;
  std::uint64_t fec_parity_bytes = 0;  ///< wire bytes spent on parity
  /// Adaptive parity-rate controller (DESIGN.md §15): current r and the
  /// number of epoch steps taken in each direction.
  std::uint64_t fec_parity_rate = 0;
  std::uint64_t fec_rate_increases = 0;
  std::uint64_t fec_rate_decreases = 0;

  // Memory-pressure robustness (DESIGN.md §16)
  std::uint64_t alloc_fails = 0;    ///< payload allocations refused
  std::uint64_t alloc_stalls = 0;   ///< backoff retry timers armed
  std::uint64_t fec_parity_skipped = 0;  ///< parity rows skipped under OOM

  bool operator==(const SenderStats&) const = default;
};

struct ReceiverStats {
  std::uint64_t data_packets_received = 0;
  std::uint64_t data_bytes_received = 0;
  std::uint64_t duplicate_packets = 0;
  std::uint64_t out_of_order_packets = 0;
  std::uint64_t window_overflow_drops = 0;

  std::uint64_t naks_sent = 0;
  std::uint64_t naks_suppressed = 0;
  /// SRM-style suppression: a backoff-delayed NAK cancelled (deferred)
  /// because another member's NAK for the same range was overheard.
  std::uint64_t naks_peer_suppressed = 0;
  std::uint64_t rate_requests_sent = 0;
  std::uint64_t urgent_requests_sent = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t probes_received = 0;
  std::uint64_t keepalives_received = 0;
  std::uint64_t nak_errs_received = 0;

  std::uint64_t bytes_delivered = 0;  ///< handed to the application
  std::uint64_t bad_packets = 0;
  /// JOINs re-sent early because DATA arrived while still unjoined
  /// (lost JOIN / JOIN_RESPONSE race, chaos hardening).
  std::uint64_t join_fast_retries = 0;

  // Dynamic-network resilience
  /// Stalled-data re-JOINs: mid-stream re-grafts after data silence
  /// (link flap / route reconvergence repaired the path around us).
  std::uint64_t stall_rejoins = 0;

  // Hierarchical repair (local repairer role / repairer children)
  std::uint64_t repairs_served = 0;     ///< child NAK ranges answered from cache
  std::uint64_t naks_forwarded = 0;     ///< child NAK ranges sent upstream
  std::uint64_t agg_updates_sent = 0;   ///< subtree UPDATEs emitted upward
  std::uint64_t repair_failovers = 0;   ///< children that fell back to the sender

  // FEC extension (§6 future work (4))
  std::uint64_t fec_packets_received = 0;
  std::uint64_t fec_recoveries = 0;  ///< packets rebuilt without a NAK
  /// Partial FEC groups discarded because they straddled a resync anchor
  /// (crash-restart mid-group must not XOR new payloads into stale state).
  std::uint64_t fec_stale_groups = 0;
  /// Groups where the losses exceeded the available parity budget (or a
  /// needed sibling had been evicted from the cache): recovery falls
  /// back to the NAK path.
  std::uint64_t fec_decode_failures = 0;

  // Memory-pressure robustness (DESIGN.md §16)
  std::uint64_t alloc_fails = 0;     ///< charges refused at this receiver
  std::uint64_t ooo_evictions = 0;   ///< reassembly segments evicted (re-NAKed)
  std::uint64_t fec_evictions = 0;   ///< FEC cache entries evicted early
  std::uint64_t repair_cache_evictions = 0;  ///< repairer LRU evictions

  bool operator==(const ReceiverStats&) const = default;
};

}  // namespace hrmc::proto
