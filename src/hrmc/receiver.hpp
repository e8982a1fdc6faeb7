// H-RMC receiver (Figure 9 of the paper).
//
// Components, as in the driver:
//  - Main Packet Processor (hrmc_rcv_data): reassembles the stream,
//    detects gaps (generating immediate NAKs for newly missing bytes),
//    and applies the three flow-control rules of §2 on every new DATA
//    packet (safe / warning / critical receive-window regions).
//  - Out-of-Order Queue: segments that cannot yet be spliced into the
//    stream; they occupy receive-buffer space like any other data.
//  - Receive Queue: in-order data awaiting the application.
//  - NAK Manager (nak_timer): re-sends pending NAKs once the local
//    suppression interval has passed.
//  - Update Generator (update_timer, H-RMC mode only): periodic UPDATEs
//    carrying the highest in-order sequence; the period adapts ±1 jiffy
//    per period based on whether a PROBE arrived (§3).
//  - Application Interface (hrmc_recvmsg): hands in-order bytes to the
//    application, in place (consume) or copied out (recv).
//
// (The driver's Backlog Queue exists to park packets while the socket is
// locked by a concurrent syscall; the simulation is single-threaded per
// host, so the lock can never be held and the queue would be dead code.)
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hrmc/config.hpp"
#include "hrmc/fec.hpp"
#include "hrmc/nak_list.hpp"
#include "hrmc/rtt.hpp"
#include "hrmc/stats.hpp"
#include "hrmc/wire.hpp"
#include "kern/mem.hpp"
#include "kern/timer.hpp"
#include "net/host.hpp"
#include "sim/random.hpp"
#include "trace/trace.hpp"

namespace hrmc::proto {

class RepairAgent;

class HrmcReceiver final : public net::Transport {
 public:
  /// `group` is the multicast session to listen to. `sender_hint` (may be
  /// 0) lets the receiver JOIN before the first data packet arrives;
  /// without it, the JOIN goes out in response to the first DATA packet,
  /// exactly as in the paper.
  HrmcReceiver(net::Host& host, const Config& cfg, net::Endpoint group,
               net::Addr sender_hint = 0);
  ~HrmcReceiver() override;

  HrmcReceiver(const HrmcReceiver&) = delete;
  HrmcReceiver& operator=(const HrmcReceiver&) = delete;

  /// Subscribes to the multicast group and (if the sender is known)
  /// sends the JOIN request.
  void open();

  /// Open for a receiver joining an already-running stream (membership
  /// churn): like open(), but the stream is anchored at the sender's
  /// *current* position via the URG resync path instead of assuming the
  /// configured initial sequence — a late joiner wants the live stream,
  /// not history the sender may have released long ago.
  void open_resync();

  /// Sends LEAVE and unsubscribes. Retries LEAVE until the response
  /// arrives (bounded).
  void close();

  /// Cancels every timer (see HrmcSender::stop).
  void stop();

  // --- Crash / restart (fault injection) ---

  /// Simulated host crash: every piece of volatile protocol state —
  /// reassembly queues, pending NAKs, FEC cache, timers, join state —
  /// is lost, exactly as a reboot would lose it. The socket keeps
  /// accumulating stats (they model the experiment's observer, not the
  /// host's memory).
  void crash();

  /// Host back up: rejoin the group and resync from the sender's
  /// *current* stream position (late-join semantics) via an URG-marked
  /// JOIN, instead of NAKing history that may already be released.
  void restart();

  // --- Application interface (hrmc_recvmsg) ---

  /// Copies up to out.size() in-order bytes to the application.
  std::size_t recv(std::span<std::uint8_t> out);

  /// Hands up to `max` in-order bytes to the application in place:
  /// calls visit(view, n) for each queued view in order, where the first
  /// n bytes of `view` are taken (n < view.size() only for a view the
  /// call splits). The view is read-only and lives until visit returns.
  /// Takes exactly the bytes recv() takes for a buffer of `max` bytes,
  /// and moves the window, the stats and the queue the same way; recv()
  /// is a copying visitor over it.
  template <class Visit>
  std::size_t consume(std::size_t max, Visit&& visit) {
    std::size_t taken = 0;
    while (taken < max && !receive_queue_.empty()) {
      const kern::SkBuff& front = *receive_queue_.front();
      const std::size_t take = std::min(max - taken, front.size());
      visit(front, take);
      taken += take;
      if (take == front.size()) {
        receive_queue_.pop_front();
      } else {
        receive_queue_.pull_front(take);  // partial read
      }
    }
    rcv_wnd_ += static_cast<kern::Seq>(taken);
    stats_.bytes_delivered += taken;
    return taken;
  }

  /// In-order bytes ready for recv() or consume().
  [[nodiscard]] std::size_t available() const {
    return receive_queue_.bytes();
  }

  /// True once the whole stream (through FIN) has been received,
  /// regardless of how much the application has consumed.
  [[nodiscard]] bool complete() const {
    return fin_seq_.has_value() && rcv_nxt_ == *fin_seq_;
  }

  /// True when complete() and the application has consumed everything.
  [[nodiscard]] bool eof() const { return complete() && available() == 0; }

  /// Set when the sender answered a retransmission request with NAK_ERR
  /// (possible only under Mode::kRmc): bytes were skipped.
  [[nodiscard]] bool stream_error() const { return stream_error_; }
  [[nodiscard]] std::uint64_t bytes_skipped() const { return bytes_skipped_; }

  std::function<void()> on_readable;  ///< new in-order data available
  std::function<void()> on_complete;  ///< entire stream received

  // --- Introspection ---
  [[nodiscard]] const ReceiverStats& stats() const { return stats_; }
  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] kern::Seq rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] kern::Seq rcv_wnd() const { return rcv_wnd_; }
  [[nodiscard]] std::size_t occupancy() const {
    return receive_queue_.bytes() + ooo_bytes_;
  }
  [[nodiscard]] kern::Jiffies update_period() const { return update_period_; }
  [[nodiscard]] bool joined() const { return join_state_ == JoinState::kJoined; }
  [[nodiscard]] sim::SimTime srtt() const { return rtt_.srtt(); }
  /// Pending NAK ranges still awaiting repair (time-series sampling).
  [[nodiscard]] std::size_t nak_backlog() const { return nak_list_.size(); }
  /// Those ranges, sorted and disjoint.
  [[nodiscard]] const std::vector<NakRange>& nak_ranges() const {
    return nak_list_.ranges();
  }
  /// Every byte in [rcv_nxt(), nak_watermark()) is held out of order or
  /// pending in nak_ranges(), so the NAK-hole walk starts here.
  [[nodiscard]] kern::Seq nak_watermark() const { return nak_mark_; }
  /// True when [begin, end) is in the stream already or inside one
  /// buffered out-of-order segment.
  [[nodiscard]] bool holds_bytes(kern::Seq begin, kern::Seq end) const;
  /// Current flow-control region: 0 safe, 1 warning, 2 critical.
  [[nodiscard]] int flow_region() const { return fc_region_; }

  /// Attaches a trace sink (see HrmcSender::set_trace).
  void set_trace(trace::TraceSink sink) { trace_ = sink; }

  // --- Hierarchical repair (million-receiver scaling extension) ---

  /// Promotes this receiver to the designated local repairer of its
  /// router subtree: it accepts JOIN/UPDATE/NAK/CONTROL/LEAVE from
  /// child receivers, answers child NAKs from a bounded payload cache,
  /// aggregates child positions into one AGG_UPDATE per subtree toward
  /// the sender, and forwards only unrepairable NAKs upward.
  void enable_repairer();

  /// Re-homes this receiver's feedback (JOIN, UPDATE, NAK, CONTROL,
  /// LEAVE) to a local repairer instead of the sender. Data still
  /// arrives via multicast. If the repairer stops making progress the
  /// receiver fails over to the sender (kRepairFailoverNaks).
  void set_repair_parent(net::Addr parent);

  /// Folded end-state of the suppression-backoff RNG — part of
  /// RunResult::rng_digest.
  [[nodiscard]] std::uint64_t rng_digest() const {
    return feedback_rng_.digest();
  }

  // --- net::Transport ---
  void rx(kern::SkBuffPtr skb) override;

 private:
  enum class JoinState { kIdle, kJoining, kJoined, kLeaving, kLeft };

  /// Out-of-order segment: payload plus its place in sequence space.
  struct OooSeg {
    kern::Seq begin = 0;
    kern::Seq end = 0;
    kern::SkBuffPtr skb;  // payload only (header already stripped)
  };

  friend class RepairAgent;

  // Packet handlers.
  void process_data(const Header& h, kern::SkBuffPtr skb);
  void process_fec(const Header& h, kern::SkBuffPtr skb);
  void process_probe(const Header& h);
  void process_keepalive(const Header& h);
  void process_join_response(const Header& h);
  void process_leave_response(const Header& h);
  void process_nak_err(const Header& h);
  /// Another member's NAK, overheard on the subtree multicast (SRM
  /// suppression): defer our own overlapping pending NAKs.
  void process_peer_nak(const Header& h, net::Addr from);
  /// Random NAK delay in [0, kNakBackoffRtts * srtt) (SRM suppression).
  [[nodiscard]] sim::SimTime suppression_backoff();

  // Reassembly helpers.
  void insert_out_of_order(kern::Seq begin, kern::Seq end,
                           kern::SkBuffPtr skb);
  void insert_trimmed(kern::Seq begin, kern::Seq end, kern::SkBuffPtr skb,
                      std::vector<OooSeg>::iterator at);
  void drain_out_of_order();
  /// Finds the holes in [rcv_nxt_, upto) not covered by buffered
  /// segments, records them in the NAK list, and NAKs the new ones.
  /// Walks only from nak_mark_, below which add_gap would return
  /// nothing, and raises the mark to `upto`.
  void nak_holes_up_to(kern::Seq upto);
  void after_stream_advance();

  // Flow control (the three rules of §2).
  void check_flow_control(std::uint32_t advertised_rate);

  // Memory-pressure robustness (DESIGN.md §16). All four are no-ops /
  // infallible when the host has no kern::MemLedger, so
  // accountant-free runs are bit-identical to the pre-§16 protocol.
  /// Charges `bytes` of component `c` against this host's ledger; a
  /// refusal counts stats_.alloc_fails and emits kAllocFail.
  bool mem_charge(kern::MemComponent c, std::size_t bytes);
  void mem_uncharge(kern::MemComponent c, std::size_t bytes);
  /// Returns every charged FEC cache byte to the ledger (crash/resync
  /// clear both caches wholesale).
  void mem_uncharge_fec_caches();
  /// Eviction policy while the ledger sits over the effective budget
  /// (a squeeze window shrinks the budget under bytes already held):
  /// shed FEC parity rows, then FEC data shards, then the farthest
  /// out-of-order segments — whose ranges go back on the NAK list, so
  /// eviction degrades to loss, never to silent data loss.
  void mem_relieve_pressure();

  // Feedback emission.
  void send_nak(const NakRange& r);
  void send_update();
  void send_control(std::uint32_t requested_rate, bool urgent);
  void send_join();
  void send_leave();
  void emit(PacketType type, kern::Seq seq, std::uint32_t rate,
            std::uint32_t length, bool urg = false);
  void emit_to(net::Addr daddr, PacketType type, kern::Seq seq,
               std::uint32_t rate, std::uint32_t length, bool urg = false);
  /// Where feedback goes: the repair parent while it is answering, the
  /// sender otherwise.
  [[nodiscard]] net::Addr feedback_target() const {
    if (repair_parent_ != 0 && !repair_failed_over_) return repair_parent_;
    return sender_addr_;
  }
  /// Stream position reported upward. A repairer reports its *subtree
  /// minimum*, never its own rcv_nxt_: the sender's membership record
  /// for a repairer stands for every leaf under it, so advancing it past
  /// a laggard child would release data that child still needs.
  [[nodiscard]] kern::Seq report_position() const;
  /// Repairer path: a child NAK range the payload cache could not serve
  /// goes upstream to the sender.
  void forward_child_nak(kern::Seq from, kern::Seq to);

  // Timers.
  void nak_timer_fire();
  void rearm_nak_timer();
  void update_timer_fire();
  void join_timer_fire();
  /// Stalled-data watchdog (piggybacked on the update timer, active when
  /// cfg_.data_stall_timeout > 0): prolonged sender silence mid-stream
  /// means a link flap or route reconvergence may have pruned our branch
  /// of the multicast tree — re-graft (IGMP re-join) and re-send a
  /// normal JOIN so the repaired path starts carrying data again.
  void maybe_stall_rejoin(sim::SimTime now);

  [[nodiscard]] sim::SimTime nak_interval() const {
    // Floor at two jiffies: the sender's retransmitter runs on the jiffy
    // timer, so a re-send any sooner is guaranteed to duplicate ("before
    // the sender has had ample opportunity to respond", §2).
    sim::SimTime iv = std::max<sim::SimTime>(
        static_cast<sim::SimTime>(kNakResendRtts *
                                  static_cast<double>(rtt_.srtt())),
        2 * kern::kJiffy);
    if (fec_wait_worthwhile()) iv = std::max(iv, fec_parity_eta());
    return iv;
  }

  /// Expected parity arrival: one group of packets at the measured
  /// inter-arrival spacing, plus margin.
  [[nodiscard]] sim::SimTime fec_parity_eta() const {
    return static_cast<sim::SimTime>(
        1.25 * static_cast<double>(cfg_.fec_group) *
        static_cast<double>(interarrival_));
  }

  /// Wait for the parity only when it is due soon — if it is far off
  /// (heavy loss collapsed the rate), ARQ recovers faster: the NAK goes
  /// out on the normal clock, and a parity that still wins the race
  /// saves the retransmission opportunistically.
  [[nodiscard]] bool fec_wait_worthwhile() const {
    if (cfg_.fec_group == 0 || interarrival_ <= 0) return false;
    const sim::SimTime base = static_cast<sim::SimTime>(
        kNakResendRtts * static_cast<double>(rtt_.srtt()));
    return fec_parity_eta() <=
           std::max<sim::SimTime>(2 * base, sim::milliseconds(60));
  }

  net::Host& host_;
  Config cfg_;
  net::Endpoint group_;
  net::Addr sender_addr_;

  // Receive sequence space (Figure 2).
  kern::Seq rcv_wnd_ = 0;  ///< next byte the app reads
  kern::Seq rcv_nxt_ = 0;  ///< next byte expected

  kern::SkBuffQueue receive_queue_;
  std::vector<OooSeg> out_of_order_queue_;  // sorted, non-overlapping
  std::size_t ooo_bytes_ = 0;

  NakList nak_list_;
  /// NAK watermark, never before rcv_nxt_: every byte in [rcv_nxt_,
  /// nak_mark_) is in out_of_order_queue_ or nak_list_. A path that takes
  /// NAK-list coverage from bytes still missing (NAK_ERR, crash, resync)
  /// drops it back to rcv_nxt_ (DESIGN.md §9).
  kern::Seq nak_mark_ = 0;
  RttEstimator rtt_;
  ReceiverStats stats_;
  trace::TraceSink trace_;
  int fc_region_ = 0;  ///< last flow-control region (0/1/2)

  // FEC extension: cache of recent data payloads (any length — the tail
  // shard of a truncated group is sub-MSS), used to reconstruct up to r
  // missing packets of a parity group via fec::decode. Bounded by
  // kFecCacheGroups * cfg_.fec_group entries. Each entry is a clone()
  // of the DATA skb: it shares the data block without copying, and its
  // own view stays whole while the receive path trims or pulls the
  // original (prefix trim, partial recv).
  struct FecCacheEntry {
    kern::Seq begin = 0;
    kern::SkBuffPtr payload;
  };
  void fec_cache_store(kern::Seq begin, const kern::SkBuff& payload);
  [[nodiscard]] const FecCacheEntry* fec_cache_find(kern::Seq begin) const;
  void splice_reconstructed(kern::Seq begin, kern::SkBuffPtr skb);
  std::deque<FecCacheEntry> fec_cache_;
  /// Upper bound of the cached begins: the largest begin pushed since
  /// fec_cache_ was last empty. A begin past it cannot be a duplicate.
  kern::Seq fec_cache_high_ = 0;
  /// Parity shards held per group, keyed by (group begin, row index):
  /// with r > 1 the first parity of a group may arrive while decode
  /// still needs a sibling row, so rows are cached until the group
  /// decodes, completes via ARQ, or ages out. Bounded by
  /// kFecCacheGroups * fec::kMaxParity entries.
  struct FecParityEntry {
    kern::Seq begin = 0;       ///< first byte of the protected group
    std::uint32_t span = 0;    ///< exact byte span covered (wire `rate`)
    std::uint8_t index = 0;    ///< parity row (wire `tries` - 1)
    kern::SkBuffPtr payload;   ///< the parity skb itself, header pulled
  };
  void fec_parity_store(kern::Seq begin, std::uint32_t span,
                        std::uint8_t index, kern::SkBuffPtr payload);
  /// Attempts an erasure decode of the group [begin, begin + span) with
  /// shard size shard_len, using every parity row held for it.
  void fec_try_decode(kern::Seq begin, std::uint32_t span,
                      std::uint32_t shard_len);
  /// Records a decode failure (losses exceed the parities held, or a
  /// needed sibling was evicted) once per group: kFecDecodeFail + stat.
  void fec_note_decode_fail(kern::Seq begin, kern::Seq span_end,
                            std::size_t erasures, std::size_t held);
  std::deque<FecParityEntry> fec_parity_cache_;
  /// Decode-failure dedupe: a group with more erasures than parities
  /// sees every later parity arrival fail the same way; report it once.
  kern::Seq fec_fail_group_ = 0;
  bool fec_fail_noted_ = false;
  /// Stream position of the most recent (re)anchor: initial_seq, moved
  /// forward by a crash-restart / late-join resync. A parity group that
  /// straddles it mixes pre-crash history with post-resync data and is
  /// discarded (see process_fec) — holds_bytes() vacuously reports the
  /// pre-anchor portion as held, so reconstruction from such a group
  /// could splice garbage into the stream.
  kern::Seq fec_anchor_ = 0;

  std::optional<kern::Seq> fin_seq_;
  bool complete_reported_ = false;
  bool stream_error_ = false;
  std::uint64_t bytes_skipped_ = 0;

  // Crash / restart state. While resync_pending_, rcv_nxt_/rcv_wnd_ are
  // stale (pre-crash) and every packet except the re-anchoring
  // JOIN_RESPONSE is ignored.
  bool crashed_ = false;
  bool resync_pending_ = false;

  JoinState join_state_ = JoinState::kIdle;
  sim::SimTime join_sent_at_ = 0;
  int join_tries_ = 0;
  int leave_tries_ = 0;
  /// Multicast re-home rounds sent before a repairer's own LEAVE
  /// (close() defers departure until the subtree detaches).
  int rehome_tries_ = 0;

  kern::TimerList nak_timer_;
  kern::TimerList update_timer_;
  kern::TimerList join_timer_;
  kern::Jiffies update_period_;
  bool probe_seen_this_period_ = false;
  std::uint32_t last_adv_rate_ = 0;  ///< rate field of the latest DATA
  sim::SimTime last_data_at_ = -1;   ///< arrival time of the latest DATA
  /// Arrival time of the latest valid packet of any kind (stall watchdog).
  sim::SimTime last_activity_at_ = -1;
  sim::SimTime last_stall_rejoin_ = -1;
  sim::SimTime interarrival_ = 0;    ///< EWMA of DATA inter-arrival time
  /// True while handling a PROBE: feedback emitted now is solicited and
  /// carries the URG mark so the sender may time it as a round trip.
  bool answering_probe_ = false;

  // --- Million-receiver scaling ---
  /// Repairer role state (hierarchical repair); null unless
  /// enable_repairer() was called.
  std::unique_ptr<RepairAgent> repair_;
  /// Local repairer this receiver's feedback is homed to (0 = sender).
  net::Addr repair_parent_ = 0;
  /// Sticky failover to the sender after the repairer stopped answering.
  bool repair_failed_over_ = false;
  /// Suppression backoff draws (SRM). Dedicated per-receiver substream:
  /// consuming it never perturbs any other randomness in the run, and it
  /// is only drawn while cfg_.nak_suppression is on.
  sim::Rng feedback_rng_;
};

}  // namespace hrmc::proto
