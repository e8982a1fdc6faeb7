// H-RMC sender (Figure 8 of the paper).
//
// Five cooperating tasks, as in the driver:
//  - Application Interface (hrmc_sendmsg): fragments the byte stream into
//    DATA packets and inserts them into the send window (write_queue);
//    packets beyond the rate window simply wait unsent in the queue (the
//    paper's "backlog").
//  - Transmitter (transmit_timer, every jiffy): paces DATA out of the
//    window under the rate budget, checks whether the window can be
//    advanced, and unicasts PROBEs to receivers the sender lacks
//    information about before releasing buffer space.
//  - Feedback Processor (hrmc_master_rcv): NAKs, CONTROL (rate requests)
//    and UPDATEs; every one refreshes the per-receiver membership state.
//  - Retransmitter (retrans_timer): services the retransmission request
//    list, with duplicate-request collapsing.
//  - Keepalive Controller (ka_timer): KEEPALIVEs with exponential backoff
//    during idle periods and window stalls.
//
// Mode::kRmc disables membership gating: buffers release unconditionally
// after MINBUF RTTs and unsatisfiable NAKs earn a NAK_ERR — the original
// RMC protocol, used as the baseline throughout the evaluation.
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "hrmc/config.hpp"
#include "hrmc/fec.hpp"
#include "hrmc/member.hpp"
#include "hrmc/rate.hpp"
#include "hrmc/rtt.hpp"
#include "hrmc/stats.hpp"
#include "hrmc/wire.hpp"
#include "kern/timer.hpp"
#include "net/host.hpp"
#include "trace/trace.hpp"

namespace hrmc::proto {

class HrmcSender final : public net::Transport {
 public:
  /// Binds to `local.port` on `host` and targets multicast `group`.
  HrmcSender(net::Host& host, const Config& cfg, net::Port local_port,
             net::Endpoint group);
  ~HrmcSender() override;

  HrmcSender(const HrmcSender&) = delete;
  HrmcSender& operator=(const HrmcSender&) = delete;

  // --- Application interface (hrmc_sendmsg / close) ---

  /// Appends bytes to the outgoing stream. Accepts at most the free send
  /// buffer space; returns the number of bytes taken (0 = would block).
  /// `on_writable` fires when space frees up.
  std::size_t send(std::span<const std::uint8_t> data);

  /// No more data. The final DATA packet carries FIN; if everything was
  /// already transmitted, KEEPALIVEs carry FIN so receivers still learn
  /// the end of stream.
  void close();

  /// Cancels all timers. The keepalive controller otherwise runs for the
  /// life of the socket (as in the driver), which would keep an
  /// open-ended simulation from draining its event queue.
  void stop();

  /// All data (and FIN) accepted, transmitted, and released from the
  /// send buffer. Under Mode::kHrmc release implies every member
  /// confirmed reception, so this is "everyone has everything".
  [[nodiscard]] bool finished() const;

  [[nodiscard]] std::size_t free_space() const {
    return cfg_.sndbuf - queued_bytes_;
  }
  [[nodiscard]] std::size_t queued_bytes() const { return queued_bytes_; }

  /// Space-available callback (edge-triggered: fires when a release
  /// creates room in a previously full buffer).
  std::function<void()> on_writable;
  /// Fires once when finished() first becomes true.
  std::function<void()> on_finished;

  // --- Introspection for tests, benches and examples ---
  [[nodiscard]] const SenderStats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] const MemberTable& members() const { return members_; }
  [[nodiscard]] std::uint32_t current_rate() const { return rate_.rate(); }
  [[nodiscard]] sim::SimTime srtt() const { return rtt_.srtt(); }
  [[nodiscard]] kern::Seq snd_nxt() const { return snd_nxt_; }
  [[nodiscard]] kern::Seq snd_sent() const { return snd_sent_; }

  /// Total time the send window has sat blocked past its hold time
  /// waiting on member information, including a stall still open now.
  /// stop() folds any open stall into SenderStats::window_stall_time,
  /// so after shutdown the counter and this accessor agree.
  [[nodiscard]] sim::SimTime window_stall_time() const;
  [[nodiscard]] bool window_stalled() const { return stall_since_ >= 0; }

  /// Attaches a trace sink; every protocol event of interest (send,
  /// retransmit, release, probe, rate change, stall, eviction) is
  /// emitted through it. A default sink is inert.
  void set_trace(trace::TraceSink sink) { trace_ = sink; }

  // --- net::Transport (hrmc_master_rcv entry) ---
  void rx(kern::SkBuffPtr skb) override;

 private:
  /// One DATA packet in the send window.
  struct TxRecord {
    kern::Seq seq_begin = 0;
    kern::Seq seq_end = 0;  ///< one past the last byte
    kern::SkBuffPtr payload;
    sim::SimTime last_sent = 0;
    sim::SimTime last_retrans = kNever;
    std::uint8_t tries = 0;
    bool sent = false;
    bool fin = false;
    bool release_counted = false;  ///< Fig 3 metric: count each packet once
  };
  static constexpr sim::SimTime kNever = -(1LL << 60);

  struct RetransRange {
    kern::Seq from = 0;
    kern::Seq to = 0;
  };

  /// Send-time bookkeeping retained past buffer release, so feedback
  /// that references already-released data can still produce an RTT
  /// sample (crucial for RMC mode on long paths: without it the very
  /// feedback that proves the hold time too short carries no timing).
  struct SentLogEntry {
    kern::Seq begin = 0;
    kern::Seq end = 0;
    sim::SimTime last_sent = 0;
    std::uint8_t tries = 0;
  };

  [[nodiscard]] std::size_t payload_len(const TxRecord& r) const {
    return static_cast<std::size_t>(kern::seq_diff(r.seq_begin, r.seq_end));
  }

  // Transmitter machinery.
  void arm_transmit_timer();
  void transmit_pump();
  std::uint64_t service_retransmissions(std::uint64_t budget);
  std::uint64_t send_new_data(std::uint64_t budget);
  void try_advance_window();
  void probe_lacking_members(kern::Seq release_seq);
  /// Rebuilds the cached lacking set when the release gate moved or the
  /// membership changed; otherwise the cache (compacted incrementally as
  /// members advance past the gate) is reused, so a probe or eviction
  /// round over a mostly-caught-up group costs O(still-lacking), not
  /// O(members) — the "no O(members) scan per event" churn requirement.
  void refresh_lacking(kern::Seq release_seq);
  /// Dead-member handling at the release gate. Returns true when the
  /// head may release despite incomplete information (members evicted
  /// under kEvict, or every lacking member dead under kRmcFallback).
  bool resolve_dead_members(kern::Seq release_seq);
  [[nodiscard]] bool member_dead(const McMember& m) const {
    return m.probe_pending && m.probe_retries >= cfg_.max_probe_retries;
  }
  /// Per-member probe spacing: the base interval grown by the
  /// configured backoff for each unanswered retry.
  [[nodiscard]] sim::SimTime probe_spacing(const McMember& m) const;
  void transmit_record(TxRecord& rec, bool retransmission);

  // Feedback processing.
  void process_nak(const Header& h, net::Addr from);
  void process_control(const Header& h, net::Addr from);
  void process_update(const Header& h, net::Addr from);
  /// AGG_UPDATE from a subtree repairer or a modeled population: seq is
  /// the subtree *minimum*, rate the represented leaf count. The only
  /// feedback path allowed to regress a membership record.
  void process_agg_update(const Header& h, net::Addr from);
  void process_join(const Header& h, net::Addr from);
  void process_leave(const Header& h, net::Addr from);
  /// Feedback admission: the member record for `addr`, adopting a
  /// receiver the table does not hold at `pos`; nullptr for straggler
  /// feedback from an address that left within kLeaveTombstone.
  McMember* admit_feedback(net::Addr addr, kern::Seq pos);
  /// Stamps `m` heard from now and settles its outstanding probe if this
  /// feedback answers it: solicited (probe-marked, and timed as an RTT
  /// sample), or unsolicited but reaching the probed position `pos`.
  void heard_from(McMember& m, kern::Seq pos, bool solicited);
  /// Admission, clamp and monotone advance for ordinary feedback.
  McMember* refresh_member(net::Addr addr, kern::Seq next_expected,
                           bool solicited);
  /// Times the packet containing `seq`, if sent_record() knows it.
  void take_rtt_sample_for(kern::Seq seq, sim::SimTime now);
  /// The sent packet containing `seq`: the window's sent records first,
  /// then the released-data log; nullopt if neither holds it.
  [[nodiscard]] std::optional<SentLogEntry> sent_record(kern::Seq seq) const;

  /// Whether RTT should be estimated from data-referencing feedback
  /// (NAK / CONTROL / JOIN send-time lookups). In H-RMC mode, solicited
  /// PROBE responses are the authoritative, unambiguous RTT source, so
  /// feedback timing is used only to bootstrap the estimator; a
  /// receiver catching up on old data would otherwise feed arbitrarily
  /// stale "samples". RMC mode has no probes and must rely on feedback
  /// timing throughout, as the paper describes.
  [[nodiscard]] bool feedback_timing_wanted() const {
    return cfg_.mode == Mode::kRmc || !rtt_.seeded();
  }
  void queue_retransmission(kern::Seq from, kern::Seq to);

  // Keepalive controller.
  void keepalive_fire();
  void note_forward_activity();
  void maybe_report_finished();

  // Memory-pressure degradation (DESIGN.md §16). A refused payload
  // allocation is treated like a full send buffer — the application
  // blocks and is re-kicked from a capped exponential-backoff timer
  // (releases also fire on_writable, so recovery takes whichever
  // happens first).
  [[nodiscard]] std::size_t window_block_bytes() const {
    return cfg_.mss + Header::kSize + 44;
  }
  bool charge_send_window();
  void alloc_retry_fire();

  // Batched membership admission (flash crowds).
  void join_batch_flush();

  // Packet construction.
  void emit_control_packet(PacketType type, net::Addr dst_addr,
                           kern::Seq seq, std::uint32_t rate,
                           std::uint32_t length, bool urg = false,
                           bool fin = false);

  net::Host& host_;
  Config cfg_;
  net::Port local_port_;
  net::Endpoint group_;

  // Send window (write_queue): records [0, first_unsent_) are in flight
  // or released-pending; [first_unsent_, size) are the backlog.
  std::deque<TxRecord> write_queue_;
  std::size_t first_unsent_ = 0;
  std::size_t queued_bytes_ = 0;

  kern::Seq snd_wnd_ = 0;   ///< first byte still buffered
  kern::Seq snd_nxt_ = 0;   ///< next byte to assign
  kern::Seq snd_sent_ = 0;  ///< end of highest byte sent
  bool fin_closed_ = false;
  bool finished_reported_ = false;

  MemberTable members_;
  // Departure tombstones: a LEAVE removes the member, but its feedback
  // already in flight (or a probe answer from the half-closed peer)
  // would re-admit it through refresh_member's adoption path — and a
  // resurrected ghost never advances, stalling the window forever
  // under kStall. Addresses stay unadoptable for a grace window; an
  // explicit re-JOIN clears the tombstone immediately.
  std::unordered_map<net::Addr, sim::SimTime> recently_left_;
  RateController rate_;
  RttEstimator rtt_;
  SenderStats stats_;
  trace::TraceSink trace_;

  // FEC accumulation (extension; active when cfg_.fec_group > 0):
  // GF(256) Reed–Solomon parity rows (fec.hpp; row 0 is the plain XOR)
  // over the current group of first transmissions. A sub-MSS packet or
  // the stream FIN flushes the open group over the bytes it actually
  // covers — absent tail shards are implicitly zero — so transfer
  // tails and short transfers are protected too. Both return the
  // parity bytes put on the wire so the pump charges them against the
  // pacing budget (rate conformance including parity, invariant 3).
  std::uint64_t fec_accumulate(const TxRecord& rec);
  std::uint64_t fec_flush();
  void fec_reset() { fec_count_ = 0; }
  /// Data shards per group, clamped to the codec's table bound.
  [[nodiscard]] std::size_t fec_effective_group() const {
    return std::min(cfg_.fec_group, fec::kMaxGroup);
  }
  /// Parity rows for the next group: the adaptive rate when the
  /// controller runs, the configured floor otherwise.
  [[nodiscard]] std::size_t fec_parity_rows() const;
  /// Per-epoch adaptive parity-rate controller (DESIGN.md §15): driven
  /// by the loss the feedback channel already reports — NAK volume per
  /// data packet plus the AGG_UPDATE subtree-minimum lag — clamped to
  /// [fec_parity_min, fec_parity_max], damped to one step per epoch,
  /// decreases additionally held for kFecHysteresisEpochs.
  void fec_adapt_fire();
  [[nodiscard]] kern::Jiffies fec_adapt_jiffies() const;
  std::vector<std::vector<std::uint8_t>> fec_parity_;
  std::size_t fec_count_ = 0;
  kern::Seq fec_begin_ = 0;
  std::uint64_t fec_bytes_ = 0;     ///< bytes covered by the open group
  std::size_t fec_rate_r_ = 1;      ///< current adaptive parity count
  std::uint64_t fec_epoch_naks_ = 0;
  std::uint64_t fec_epoch_packets_ = 0;
  int fec_low_epochs_ = 0;          ///< consecutive under-target epochs
  kern::Seq fec_epoch_min_ = 0;     ///< subtree minimum at last epoch
  bool fec_min_valid_ = false;      ///< fec_epoch_min_ has been sampled
  int fec_min_stalled_ = 0;         ///< consecutive epochs min not moving

  /// Start of the current release-gate stall (-1 = not stalled): set
  /// when the head's hold has expired but member information is
  /// incomplete, cleared (and accumulated into stats) when it releases.
  sim::SimTime stall_since_ = -1;

  // Lacking-set cache (see refresh_lacking): members still below
  // lacking_gate_, valid for one (gate, membership version) pair. Every
  // add and remove bumps the version, and each reader refreshes first,
  // so a cached pointer never outlives its member.
  std::vector<McMember*> lacking_cache_;
  kern::Seq lacking_gate_ = 0;
  std::uint64_t lacking_version_ = 0;
  bool lacking_valid_ = false;
  /// Rotating start index for capped probe rounds, so members deferred
  /// by kMaxProbesPerRound are first in line next round.
  std::size_t probe_cursor_ = 0;

  // Join-batching state (active when cfg_.join_batch_threshold > 0):
  // JOINs arriving in one burst beyond the threshold are answered with
  // a single multicast JOIN_RESPONSE on the next jiffy instead of a
  // per-JOIN unicast — a 10k-JOIN flash crowd costs one table insert
  // per JOIN plus one control packet total, and cannot melt the tx ring.
  std::size_t joins_since_flush_ = 0;
  sim::SimTime last_join_at_ = kNever;
  bool join_batch_pending_ = false;

  std::vector<RetransRange> retrans_queue_;
  std::deque<SentLogEntry> sent_log_;
  std::uint64_t budget_carry_ = 0;
  sim::SimTime last_pump_ = 0;
  std::size_t dev_credit_ = 0;  ///< per-pump device-queue allowance

  static constexpr std::size_t kSentLogCap = 4096;

  kern::TimerList transmit_timer_;
  kern::TimerList retrans_timer_;
  kern::TimerList ka_timer_;
  kern::TimerList join_batch_timer_;
  kern::TimerList fec_adapt_timer_;
  kern::TimerList alloc_retry_timer_;
  /// Current backoff period; 0 until an allocation is refused, reset to
  /// 0 by the next success.
  kern::Jiffies alloc_retry_period_ = 0;
  kern::Jiffies ka_period_;
  sim::SimTime last_forward_send_ = 0;
};

}  // namespace hrmc::proto
