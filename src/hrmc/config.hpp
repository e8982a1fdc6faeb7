// Protocol constants and tuning knobs.
//
// Defaults reproduce the configuration described in the paper; the
// constants the paper does not pin down are documented in DESIGN.md §5.
#pragma once

#include <cstdint>

#include "kern/jiffies.hpp"
#include "kern/seq.hpp"
#include "sim/time.hpp"

namespace hrmc::proto {

/// Reliability mode: the original RMC protocol (pure NAK, unconditional
/// buffer release, NAK_ERR on unsatisfiable requests) or the H-RMC hybrid
/// (membership + UPDATE + PROBE, release gated on complete information).
enum class Mode {
  kRmc,
  kHrmc,
};

/// What the sender does with a member that stops answering PROBEs (the
/// paper never addresses this: its release gate waits on *every* member,
/// so one silently crashed receiver stalls the window for everyone).
enum class EvictionPolicy {
  /// Paper-faithful: keep probing (with backoff) and never advance the
  /// window past data the dead member is still owed.
  kStall,
  /// Drop the member from the table after max_probe_retries unanswered
  /// probes; the window frees and the survivors proceed. A receiver that
  /// was merely partitioned can re-JOIN and resync.
  kEvict,
  /// Keep the member but stop gating releases on it: data it is owed
  /// releases unconditionally, exactly as baseline RMC would, and a
  /// late NAK for it earns a NAK_ERR.
  kRmcFallback,
};

// --- Fixed protocol constants (no run varies them; DESIGN.md §5) ---

/// Receive-window headroom horizon for warning-region rate requests
/// (paper: 4 RTTs).
inline constexpr int kWarnbufRtts = 4;

/// Receive-window occupancy fractions where the warning / critical
/// regions begin (paper defines the regions, not the fractions).
inline constexpr double kWarnFraction = 0.50;
inline constexpr double kCritFraction = 0.90;

/// Forward transmission halts for this many RTTs after an URG rate
/// request (paper §2).
inline constexpr int kUrgentStopRtts = 2;

/// Initial update period (paper: 50 jiffies = 0.5 s).
inline constexpr kern::Jiffies kUpdatePeriodInit = 50;
/// Dynamic update-period bounds (paper: ±1 jiffy per period, linear).
inline constexpr kern::Jiffies kUpdatePeriodMin = 2;
inline constexpr kern::Jiffies kUpdatePeriodMax = 200;

/// Keepalive: exponential backoff from 2 jiffies up to 2 s (paper caps
/// at 2 s).
inline constexpr kern::Jiffies kKeepaliveInit = 2;
inline constexpr kern::Jiffies kKeepaliveMax = 200;

/// Initial RTT estimate. One jiffy: optimistic, so the first
/// buffer-release attempts happen early and the resulting PROBE
/// responses seed the estimator with real samples (a pessimistic initial
/// value never gets corrected on a loss-free network, freezing the
/// protocol in 10×100 ms holds).
inline constexpr sim::SimTime kInitialRtt = sim::milliseconds(10);
inline constexpr sim::SimTime kMinRttClamp = sim::microseconds(200);

/// Receiver NAK suppression: a pending NAK is not re-sent until this
/// many RTTs have elapsed (documented choice; paper says "appropriate
/// intervals").
inline constexpr double kNakResendRtts = 1.5;
/// SRM-style suppression backoff window width, in smoothed RTTs (see
/// Config::nak_suppression).
inline constexpr double kNakBackoffRtts = 1.0;

/// Sender collapses duplicate retransmission requests arriving within
/// this fraction of an RTT of a prior retransmission of the same data.
inline constexpr double kRetransDedupRtts = 0.5;
/// Rate is halved at most once per RTT regardless of how many NAKs /
/// warnings arrive within it (standard multiplicative-decrease rule).
inline constexpr double kRateCutHoldoffRtts = 1.0;

/// Minimum spacing between PROBEs to the same receiver.
inline constexpr double kProbeIntervalRtts = 1.0;
/// Cap on the probe-backoff exponent (bounds both the spacing and pow()).
inline constexpr int kProbeBackoffCap = 6;
/// Cap on unicast PROBEs emitted per release attempt (one scheduler
/// event). A cold 10k-member table owes 10k probes; without the cap
/// they leave as one 10k-packet burst in a single jiffy. Deferred
/// members are picked up by the next release attempt via a rotating
/// cursor, so every member is still probed within O(lacking / cap)
/// rounds with the existing retry backoff intact.
inline constexpr std::size_t kMaxProbesPerRound = 128;

/// Local-repairer payload cache, in packets (most recently received
/// DATA payloads kept for answering child NAKs). Bounds repairer
/// memory; older losses fall through to the sender as forwarded NAKs.
inline constexpr std::size_t kRepairCachePackets = 256;
/// A registered child silent for this long is dropped from the
/// repairer's aggregate (its leaves stop counting toward the subtree
/// multiplicity; the sender's own tombstone machinery handles the
/// membership record).
inline constexpr sim::SimTime kRepairChildTimeout = sim::seconds(5);
/// Child-side failover: after this many NAK re-sends of the same range
/// without progress through the repairer, the child re-homes to the
/// sender (and re-JOINs there). Guards against a crashed repairer.
inline constexpr int kRepairFailoverNaks = 3;

/// Receiver-side payload cache for FEC reconstruction, in FEC groups.
inline constexpr std::size_t kFecCacheGroups = 4;
/// Consecutive quiet FEC adaptation epochs before the parity rate steps
/// down.
inline constexpr int kFecHysteresisEpochs = 2;

/// Sender alloc-retry backoff (memory-pressure robustness, DESIGN.md
/// §16): after a refused payload allocation the sender re-kicks the
/// application from a timer whose period doubles from kAllocRetryInit
/// up to kAllocRetryMax jiffies, resetting on the first successful
/// allocation (capped exponential backoff, like the kernel's
/// __GFP_RETRY paths).
inline constexpr kern::Jiffies kAllocRetryInit = 1;
inline constexpr kern::Jiffies kAllocRetryMax = 64;

struct Config {
  Mode mode = Mode::kHrmc;

  // --- Buffers (the independent variable of most figures) ---
  std::size_t sndbuf = 256 * 1024;  ///< send-side kernel buffer, bytes
  std::size_t rcvbuf = 256 * 1024;  ///< receive-side kernel buffer, bytes

  // --- Segmentation ---
  /// Data bytes per DATA packet: 1500 MTU - 20 IP - 20 H-RMC.
  std::size_t mss = 1460;

  // --- Window-based flow control (§2) ---
  /// Minimum number of RTTs a data packet stays buffered after its most
  /// recent transmission before it may be released (paper: 10).
  int minbuf_rtts = 10;

  // --- Rate-based flow control ---
  /// Floor / restart transmission rate in bytes per second.
  std::uint32_t min_rate = 16 * 1024;
  /// Rate cap in bytes per second. Deliberately far above any simulated
  /// link: the paper's sender is capped by buffers and feedback, not by
  /// knowledge of link speed (this is what exposes NIC drops in Fig 13).
  std::uint32_t max_rate = 125'000'000;

  // --- Timers ---
  /// Fixed update period when false (the paper's "original design").
  bool dynamic_update_timer = true;

  // --- Failure detection and recovery (robustness extension) ---
  /// Policy once a member exhausts its probe-retry budget.
  EvictionPolicy eviction_policy = EvictionPolicy::kStall;
  /// Consecutive unanswered PROBEs before a member is declared dead.
  int max_probe_retries = 8;
  /// Probe-spacing growth per unanswered retry. 1.0 = fixed spacing,
  /// which is exactly the pre-extension behavior (the default, so
  /// fault-free runs are unchanged); 2.0 = classic exponential backoff.
  double probe_backoff = 1.0;

  // --- Dynamic-network resilience (robustness extension; off by default,
  // so fault-free runs are bit-identical to the unextended protocol) ---
  /// Flash-crowd admission batching: when more than this many JOINs land
  /// within one jiffy of each other, the sender stops unicasting a
  /// JOIN_RESPONSE per JOIN and instead multicasts a single response on
  /// the next jiffy — a 10k-JOIN storm inside one RTT costs one O(1)
  /// table insert per JOIN plus one control packet total. 0 disables.
  std::size_t join_batch_threshold = 0;
  /// Receiver stalled-data watchdog: if no DATA / FEC / KEEPALIVE has
  /// arrived for this long mid-stream, the receiver assumes its branch of
  /// the tree was repaired around it (link flap, route reconvergence) and
  /// re-grafts: re-JOINs the group at the IGMP layer and re-sends a
  /// normal JOIN so the sender refreshes its record. 0 disables.
  sim::SimTime data_stall_timeout = 0;

  // --- Million-receiver scaling (hierarchical repair + SRM suppression;
  // off by default, so flat-topology runs are bit-identical) ---
  /// SRM-style NAK suppression: a fresh hole's first NAK is delayed by a
  /// uniform random backoff in [0, kNakBackoffRtts * srtt]; a NAK for
  /// an overlapping range overheard from another group member (receivers
  /// multicast a copy of each NAK into their subtree) re-defers it, so
  /// a shared upstream loss costs one NAK per subtree, not one per leaf.
  bool nak_suppression = false;
  /// Root seed for the receiver-local suppression RNG (drawn only while
  /// nak_suppression is on; per-receiver substreams are derived from it
  /// and the receiver address, so runs stay deterministic).
  std::uint64_t feedback_seed = 0;

  // --- Optional extensions (§6 future work; off by default) ---
  /// (1) Early probes: probe receivers when a packet is within this many
  /// RTTs of its release time instead of at release time, avoiding
  /// stop-and-wait with small buffers. 0 disables.
  int early_probe_rtts = 0;
  /// (2) Multicast the probe instead of unicasting when more than this
  /// many receivers need probing. 0 disables.
  std::size_t mcast_probe_threshold = 0;
  /// (4) Forward error correction for lossy (wireless-like) paths: the
  /// sender multicasts `r` GF(256) Reed–Solomon parity packets after
  /// every group of `fec_group` data packets (a group is cut short —
  /// and its parity flushed over the bytes actually covered — when a
  /// sub-MSS packet or end-of-stream interrupts it, so transfer tails
  /// and short transfers are protected too). Parity row 0 of the codec
  /// is the plain XOR, so r = 1 is bit-compatible with the original
  /// single-XOR scheme. A receiver missing up to `r` packets of a group
  /// reconstructs them locally from cached siblings and parities,
  /// without a NAK round trip; only groups whose losses exceed the
  /// parity budget fall back to NAKs (DESIGN.md §15). 0 disables.
  std::size_t fec_group = 0;
  /// Parity packets per group when adaptation is off, and the floor the
  /// adaptive controller never goes below. Clamped to fec::kMaxParity.
  std::size_t fec_parity_min = 1;
  /// Ceiling for the adaptive parity rate (<= fec::kMaxParity).
  std::size_t fec_parity_max = 1;
  /// Adaptation epoch: every this often the sender re-targets the
  /// parity rate from the loss it observes on the feedback channel
  /// (NAK volume per data packet, plus AGG_UPDATE subtree-minimum lag).
  /// Moves are damped to one step per epoch, and decreases additionally
  /// wait kFecHysteresisEpochs of consecutive under-target epochs.
  /// 0 disables adaptation (fixed r = fec_parity_min).
  sim::SimTime fec_adapt_interval = 0;

  /// Initial sequence number of every stream (both endpoints assume it;
  /// a production protocol would carry it in JOIN_RESPONSE). Configurable
  /// so tests can start a stream just below the 2^32 wrap.
  static constexpr kern::Seq kInitialSeq = 1;
  kern::Seq initial_seq = kInitialSeq;
};

}  // namespace hrmc::proto
