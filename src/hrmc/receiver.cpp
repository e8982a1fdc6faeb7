#include "hrmc/receiver.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "hrmc/repairer.hpp"

namespace hrmc::proto {

using kern::Seq;
using kern::seq_after;
using kern::seq_after_eq;
using kern::seq_before;
using kern::seq_before_eq;
using kern::seq_diff;
using kern::seq_max;
using kern::seq_min;

namespace {
constexpr int kMaxJoinTries = 20;
constexpr kern::Jiffies kJoinRetryJiffies = 50;  // 0.5 s
// LEAVE retries never give up (capped exponential backoff instead): a
// departure lost to a blackout window would otherwise leave a ghost
// member stalling the sender's window forever under kStall.
constexpr int kLeaveBackoffCap = 4;  // 50 << 4 jiffies = 8 s between tries
// Re-home retry cadence for a departing repairer: wait for the
// children's detach acks (~one subtree RTT) between multicast LEAVE
// rounds, with a ~1 s total budget before leaving anyway — the residual
// orphan risk is bounded by the sender's release hold time.
constexpr kern::Jiffies kRehomeRetryJiffies = 5;  // 50 ms
constexpr int kRehomeTriesMax = 20;
}  // namespace

HrmcReceiver::HrmcReceiver(net::Host& host, const Config& cfg,
                           net::Endpoint group, net::Addr sender_hint)
    : host_(host),
      cfg_(cfg),
      group_(group),
      sender_addr_(sender_hint),
      rtt_(kInitialRtt, kMinRttClamp),
      nak_timer_(host.scheduler(), [this] { nak_timer_fire(); }),
      update_timer_(host.scheduler(), [this] { update_timer_fire(); }),
      join_timer_(host.scheduler(), [this] { join_timer_fire(); }),
      update_period_(kUpdatePeriodInit),
      feedback_rng_(sim::substream_seed(
          sim::substream_seed(cfg.feedback_seed, "nak-backoff"),
          std::to_string(host.addr()))) {
  rcv_wnd_ = rcv_nxt_ = nak_mark_ = cfg_.initial_seq;
  fec_anchor_ = cfg_.initial_seq;
}

HrmcReceiver::~HrmcReceiver() {
  host_.unregister_transport(kIpProtoHrmc);
}

void HrmcReceiver::open() {
  host_.register_transport(kIpProtoHrmc, this);
  host_.join_group(group_.addr);
  if (sender_addr_ != 0) send_join();
}

void HrmcReceiver::open_resync() {
  host_.register_transport(kIpProtoHrmc, this);
  host_.join_group(group_.addr);
  resync_pending_ = true;
  if (sender_addr_ != 0) send_join();
  // Sender unknown: the resync JOIN goes out from rx() when the first
  // multicast packet reveals its address, exactly as after restart().
}

void HrmcReceiver::close() {
  if (join_state_ == JoinState::kLeaving || join_state_ == JoinState::kLeft) {
    return;
  }
  // A repairer must not orphan its subtree: its clean LEAVE removes the
  // only sender-side record gating the children's positions, so a
  // laggard child's bytes could be released before its NAK-failover
  // re-registers it. Re-home the children first — a subtree-scoped
  // multicast LEAVE tells them to fail over to the sender now — and
  // defer our own leave until they detach (each acks with a unicast
  // LEAVE) or a bounded retry budget runs out.
  if (repair_ != nullptr && repair_->child_count() > 0 &&
      sender_addr_ != 0 && rehome_tries_ < kRehomeTriesMax) {
    ++rehome_tries_;
    emit_to(group_.addr, PacketType::kLeave, report_position(), 0, 0);
    join_timer_.mod_timer_in(kRehomeRetryJiffies);
    return;
  }
  trace_.emit(trace::EventKind::kLeave, rcv_nxt_, rcv_nxt_, host_.addr());
  host_.leave_group(group_.addr);
  if (sender_addr_ != 0) {
    join_state_ = JoinState::kLeaving;
    leave_tries_ = 0;
    send_leave();
  } else {
    join_state_ = JoinState::kLeft;
  }
  update_timer_.del_timer();
  nak_timer_.del_timer();
}

void HrmcReceiver::stop() {
  nak_timer_.del_timer();
  update_timer_.del_timer();
  join_timer_.del_timer();
  if (repair_) repair_->stop();
}

// --------------------------------------------------------------------
// Hierarchical repair role wiring
// --------------------------------------------------------------------

void HrmcReceiver::enable_repairer() {
  if (!repair_) repair_ = std::make_unique<RepairAgent>(*this);
}

void HrmcReceiver::set_repair_parent(net::Addr parent) {
  repair_parent_ = parent;
  repair_failed_over_ = false;
}

Seq HrmcReceiver::report_position() const {
  if (!repair_) return rcv_nxt_;
  return repair_->subtree_min(rcv_nxt_);
}

// --------------------------------------------------------------------
// Crash / restart (fault injection)
// --------------------------------------------------------------------

void HrmcReceiver::crash() {
  if (crashed_) return;
  crashed_ = true;
  stop();
  receive_queue_.clear();
  mem_uncharge(kern::MemComponent::kReassembly, ooo_bytes_);
  out_of_order_queue_.clear();
  ooo_bytes_ = 0;
  nak_list_.clear();
  nak_mark_ = rcv_nxt_;
  mem_uncharge_fec_caches();
  fec_cache_.clear();
  fec_parity_cache_.clear();
  fec_fail_noted_ = false;
  fin_seq_.reset();
  complete_reported_ = false;
  resync_pending_ = false;
  join_state_ = JoinState::kIdle;
  join_tries_ = 0;
  last_data_at_ = -1;
  interarrival_ = 0;
  // Repairer role: the child table and payload cache are volatile (the
  // children re-register via their own recovery); a prior failover away
  // from a dead parent is forgotten — the restart resync re-homes to
  // the configured parent, failing over again only if it stays dead.
  if (repair_) repair_->clear();
  repair_failed_over_ = false;
  // rcv_nxt_/rcv_wnd_ stay as stale markers until restart() resyncs;
  // nothing reads them while crashed_ (rx() drops everything).
}

void HrmcReceiver::restart() {
  if (!crashed_) return;
  crashed_ = false;
  resync_pending_ = true;
  update_period_ = kUpdatePeriodInit;
  probe_seen_this_period_ = false;
  // Multicast subscription: the crash never sent an IGMP leave, so the
  // router kept forwarding; re-join is idempotent but covers a restart
  // after an explicit close().
  host_.join_group(group_.addr);
  if (sender_addr_ != 0) send_join();
  // If the sender is unknown (we crashed before its first packet), the
  // resync JOIN goes out from rx() when a packet reveals its address.
}

// --------------------------------------------------------------------
// Application interface (hrmc_recvmsg)
// --------------------------------------------------------------------

std::size_t HrmcReceiver::recv(std::span<std::uint8_t> out) {
  std::uint8_t* to = out.data();
  return consume(out.size(), [&to](const kern::SkBuff& view, std::size_t n) {
    std::memcpy(to, view.data(), n);
    to += n;
  });
}

// --------------------------------------------------------------------
// Packet reception
// --------------------------------------------------------------------

void HrmcReceiver::rx(kern::SkBuffPtr skb) {
  // A crashed host cannot process anything (the simulated host already
  // drops at its boundary; this guards direct calls in tests).
  if (crashed_) return;
  auto h = read_header(*skb);
  if (!h || h->dport != group_.port) {
    stats_.bad_packets++;
    return;
  }
  const net::Addr from = skb->saddr;
  const bool unicast_to_me = skb->daddr == host_.addr();
  // Learn the sender's unicast address from its first packet; the JOIN
  // goes out "in response to the first data packet" (§2). Peer feedback
  // (child traffic homed to a repairer, or a subtree-multicast NAK copy
  // under suppression) originates at another *receiver* and must never
  // be mistaken for the sender.
  const bool peer_feedback =
      h->type == PacketType::kNak || h->type == PacketType::kUpdate ||
      h->type == PacketType::kAggUpdate || h->type == PacketType::kJoin ||
      h->type == PacketType::kLeave || h->type == PacketType::kControl;
  if (sender_addr_ == 0 && !peer_feedback && !net::is_multicast(from)) {
    sender_addr_ = from;
  }
  last_activity_at_ = host_.scheduler().now();
  if (resync_pending_) {
    // Post-restart limbo: rcv_nxt_ is a stale pre-crash value, so
    // processing DATA / KEEPALIVE / PROBE against it would emit
    // garbage feedback (worse: a stale UPDATE could re-stall the
    // sender's window). Only the JOIN_RESPONSE that re-anchors the
    // stream gets through.
    if (join_state_ == JoinState::kIdle && sender_addr_ != 0) {
      send_join();
    } else if (join_state_ == JoinState::kJoining && sender_addr_ != 0 &&
               host_.scheduler().now() - join_sent_at_ >= rtt_.rto()) {
      stats_.join_fast_retries++;
      send_join();
    }
    if (h->type != PacketType::kJoinResponse) return;
    process_join_response(*h);
    return;
  }
  if (join_state_ == JoinState::kLeaving || join_state_ == JoinState::kLeft) {
    // After close() this receiver is a ghost: answering a probe or
    // emitting an UPDATE would resurrect its membership at the sender
    // (refresh_member adopts feedback from unknown receivers) and
    // re-stall the window on a member that will never advance again.
    // Only the LEAVE handshake completion gets through.
    if (h->type == PacketType::kLeaveResponse) process_leave_response(*h);
    return;
  }
  if (join_state_ == JoinState::kIdle && sender_addr_ != 0 &&
      h->type == PacketType::kData) {
    send_join();
  } else if (join_state_ == JoinState::kJoining && sender_addr_ != 0 &&
             h->type == PacketType::kData &&
             host_.scheduler().now() - join_sent_at_ >= rtt_.rto()) {
    // DATA is flowing but the handshake is not: our JOIN or its
    // response was lost. The 0.5 s retry timer is slower than a short
    // transfer — the sender would run the whole stream against an
    // empty member table, release unconditionally (RMC-style), and
    // answer our eventual NAK with NAK_ERR. Data arrival is proof the
    // path works, so re-JOIN after an RTO instead of waiting it out.
    stats_.join_fast_retries++;
    send_join();
  }

  switch (h->type) {
    case PacketType::kData: process_data(*h, std::move(skb)); break;
    case PacketType::kFec: process_fec(*h, std::move(skb)); break;
    case PacketType::kProbe: process_probe(*h); break;
    case PacketType::kKeepalive: process_keepalive(*h); break;
    case PacketType::kJoinResponse: process_join_response(*h); break;
    case PacketType::kLeaveResponse: process_leave_response(*h); break;
    case PacketType::kNakErr: process_nak_err(*h); break;
    case PacketType::kNak:
      if (unicast_to_me && repair_) {
        // A child's NAK homed to us as its subtree repairer.
        repair_->handle_nak(*h, from);
      } else if (!unicast_to_me && cfg_.nak_suppression &&
                 from != host_.addr()) {
        // A peer's NAK overheard on the subtree multicast (SRM).
        process_peer_nak(*h, from);
      }
      break;
    case PacketType::kUpdate:
      if (unicast_to_me && repair_) {
        repair_->handle_update(*h, from, /*aggregated=*/false);
      } else {
        stats_.bad_packets++;
      }
      break;
    case PacketType::kAggUpdate:
      // A nested repairer reporting its whole subtree to us.
      if (unicast_to_me && repair_) {
        repair_->handle_update(*h, from, /*aggregated=*/true);
      } else {
        stats_.bad_packets++;
      }
      break;
    case PacketType::kJoin:
      if (unicast_to_me && repair_) {
        repair_->handle_join(*h, from);
      } else {
        stats_.bad_packets++;
      }
      break;
    case PacketType::kLeave:
      if (unicast_to_me && repair_) {
        repair_->handle_leave(*h, from);
      } else if (!unicast_to_me && from == repair_parent_ &&
                 from != host_.addr()) {
        // Subtree-scoped LEAVE from our repairer: it is departing and
        // re-homing us. Fail over to the sender immediately and ack
        // with a unicast detach LEAVE so it can count us out and
        // proceed with its own departure.
        if (!repair_failed_over_) {
          repair_failed_over_ = true;
          stats_.repair_failovers++;
        }
        emit_to(repair_parent_, PacketType::kLeave, rcv_nxt_, 0, 0);
        if (join_state_ == JoinState::kJoined ||
            join_state_ == JoinState::kJoining) {
          send_join();
        }
      } else if (unicast_to_me || from != host_.addr()) {
        // Our own multicast echo is not malformed traffic.
        stats_.bad_packets++;
      }
      break;
    case PacketType::kControl:
      if (unicast_to_me && repair_) {
        repair_->handle_control(*h, from);
      } else {
        stats_.bad_packets++;
      }
      break;
    default:
      stats_.bad_packets++;
      break;
  }
}

void HrmcReceiver::process_data(const Header& h, kern::SkBuffPtr skb) {
  if (skb->size() != h.length) {
    stats_.bad_packets++;
    return;
  }
  stats_.data_packets_received++;
  stats_.data_bytes_received += h.length;
  last_adv_rate_ = h.rate;
  const sim::SimTime now = host_.scheduler().now();
  if (last_data_at_ >= 0) {
    const sim::SimTime gap = now - last_data_at_;
    interarrival_ =
        interarrival_ == 0 ? gap : interarrival_ + (gap - interarrival_) / 8;
  }
  last_data_at_ = now;

  // A squeeze window can push the ledger over the effective budget
  // without any new charge (DESIGN.md §16): shed cached state before
  // taking on more.
  mem_relieve_pressure();

  Seq begin = h.seq;
  const Seq end = h.seq + h.length;
  if (h.fin) fin_seq_ = end;

  // FEC extension: remember data payloads so a later parity packet can
  // reconstruct lost siblings. Sub-MSS payloads matter too: the tail
  // shard of a truncated group is short, and decode needs its bytes.
  if (cfg_.fec_group > 0 && h.length > 0) fec_cache_store(begin, *skb);

  // Repairer role: every arriving DATA packet (duplicates included —
  // a retransmission we no longer need may be exactly what a child is
  // missing) feeds the local repair cache before any trimming below
  // mutates the buffer. clone() is O(1) copy-on-write.
  if (repair_) repair_->cache_data(h, skb);

  // Entirely old data: duplicate (a retransmission we no longer need).
  if (seq_before_eq(end, rcv_nxt_)) {
    stats_.duplicate_packets++;
    return;
  }

  // R4 check (Figure 2): data beyond the receive window cannot be
  // buffered at all. The distance is signed modular arithmetic: a
  // negative value means `end` is so far ahead of the window (> 2^31)
  // that it wrapped — garbage sequence numbers must not slip past the
  // bound and be buffered at a fabricated position.
  const std::int32_t ahead = seq_diff(rcv_wnd_, end);
  if (ahead < 0 || ahead > static_cast<std::int32_t>(cfg_.rcvbuf)) {
    stats_.window_overflow_drops++;
    return;
  }
  // Buffer-occupancy check: out-of-order and queued data consume real
  // receive-buffer memory; a full buffer cannot accept even in-order
  // data (the packet will be recovered via NAK once space frees).
  if (occupancy() + h.length > cfg_.rcvbuf) {
    stats_.window_overflow_drops++;
    return;
  }

  // Trim the already-received prefix.
  if (seq_before(begin, rcv_nxt_)) {
    skb->pull(static_cast<std::size_t>(seq_diff(begin, rcv_nxt_)));
    begin = rcv_nxt_;
  }

  if (begin == rcv_nxt_) {
    // In-order: splice straight into the stream.
    nak_list_.fill(begin, end);
    receive_queue_.push_back(std::move(skb));
    rcv_nxt_ = end;
    drain_out_of_order();
    after_stream_advance();
  } else {
    // Gap: everything between rcv_nxt_ and this segment that is not
    // already buffered is newly missing.
    stats_.out_of_order_packets++;
    insert_out_of_order(begin, end, std::move(skb));
    nak_holes_up_to(begin);
  }

  check_flow_control(h.rate);
}

void HrmcReceiver::insert_out_of_order(Seq begin, Seq end,
                                       kern::SkBuffPtr skb) {
  // Trim against existing segments, then insert sorted. Overlaps are
  // rare (retransmission races), so trimming to the uncovered prefix is
  // sufficient: any still-missing tail will be NAKed again.
  //
  // Locate the first segment with end > begin by scanning from the
  // *tail*: packets overwhelmingly arrive in sequence order, so a new
  // segment almost always sorts after everything already buffered and
  // the backward scan stops immediately — O(1) in the common case where
  // a forward scan from begin() is O(queue).
  auto it = out_of_order_queue_.end();
  while (it != out_of_order_queue_.begin() &&
         seq_after(std::prev(it)->end, begin)) {
    --it;
  }
  if (it != out_of_order_queue_.end()) {
    if (seq_before_eq(it->begin, begin)) {
      // Existing segment covers our start.
      if (seq_after_eq(it->end, end)) {
        stats_.duplicate_packets++;
        return;  // fully covered
      }
      const auto overlap = static_cast<std::size_t>(seq_diff(begin, it->end));
      skb->pull(overlap);
      begin = it->end;
      ++it;
    }
    if (it != out_of_order_queue_.end() && seq_before(it->begin, end)) {
      // Our tail overlaps the next segment: keep only the prefix.
      const auto keep = static_cast<std::size_t>(seq_diff(begin, it->begin));
      skb->trim(keep);
      // (end shrinks to it->begin)
      return insert_trimmed(begin, it->begin, std::move(skb), it);
    }
  }
  insert_trimmed(begin, end, std::move(skb), it);
}

void HrmcReceiver::insert_trimmed(Seq begin, Seq end, kern::SkBuffPtr skb,
                                  std::vector<OooSeg>::iterator at) {
  if (!seq_before(begin, end)) return;
  const auto len = static_cast<std::size_t>(seq_diff(begin, end));
  // Fallible allocation (DESIGN.md §16): a refused reassembly buffer is
  // indistinguishable from losing the packet on the wire — the hole
  // stays on the NAK clock and is re-fetched once memory frees.
  if (!mem_charge(kern::MemComponent::kReassembly, len)) return;
  trace_.emit(trace::EventKind::kOooInsert, begin, end, ooo_bytes_);
  ooo_bytes_ += len;
  nak_list_.fill(begin, end);
  out_of_order_queue_.insert(at, OooSeg{begin, end, std::move(skb)});
}

void HrmcReceiver::drain_out_of_order() {
  auto it = out_of_order_queue_.begin();
  while (it != out_of_order_queue_.end() &&
         seq_before_eq(it->begin, rcv_nxt_)) {
    const auto len = static_cast<std::size_t>(seq_diff(it->begin, it->end));
    ooo_bytes_ -= len;
    mem_uncharge(kern::MemComponent::kReassembly, len);
    if (seq_after(it->end, rcv_nxt_)) {
      const auto overlap =
          static_cast<std::size_t>(seq_diff(it->begin, rcv_nxt_));
      it->skb->pull(overlap);
      receive_queue_.push_back(std::move(it->skb));
      rcv_nxt_ = it->end;
    }
    ++it;
  }
  out_of_order_queue_.erase(out_of_order_queue_.begin(), it);
}

void HrmcReceiver::nak_holes_up_to(Seq upto) {
  const sim::SimTime now = host_.scheduler().now();
  std::vector<NakRange> fresh;
  const auto add_gap = [&](Seq from, Seq to) {
    auto f = nak_list_.add_gap(from, to, now);
    fresh.insert(fresh.end(), f.begin(), f.end());
  };
  // A walk from rcv_nxt_ would find only gaps below nak_mark_ that the
  // NAK list already covers, so it starts at the mark, at the first
  // segment that ends past it (the queue is sorted and non-overlapping).
  if (seq_before(nak_mark_, upto)) {
    Seq cursor = nak_mark_;
    auto seg = std::partition_point(
        out_of_order_queue_.begin(), out_of_order_queue_.end(),
        [cursor](const OooSeg& s) { return seq_before_eq(s.end, cursor); });
    for (; seg != out_of_order_queue_.end() && seq_before(seg->begin, upto);
         ++seg) {
      if (seq_before(cursor, seg->begin)) add_gap(cursor, seg->begin);
      cursor = seq_max(cursor, seg->end);
    }
    if (seq_before(cursor, upto)) add_gap(cursor, upto);
    nak_mark_ = upto;
  }
  if (fresh.empty() && seq_before(rcv_nxt_, upto)) {
    // A hole existed but every byte of it is already pending: local NAK
    // suppression at work.
    stats_.naks_suppressed++;
    trace_.emit(trace::EventKind::kNakSuppress, rcv_nxt_, upto, 0);
  }
  // With FEC active and the parity due soon, give it one interval to
  // repair the hole locally before spending a NAK round trip on it
  // (probe-solicited NAKs are never deferred: the sender is waiting).
  const bool defer = fec_wait_worthwhile() && !answering_probe_;
  // SRM-style suppression: instead of NAKing a fresh hole immediately,
  // wait a random backoff — if a peer's NAK for the same range (or the
  // retransmission it provokes) arrives first, ours is cancelled
  // (probe-solicited NAKs still go out at once: the sender is waiting).
  const bool backoff = cfg_.nak_suppression && !answering_probe_;
  for (const NakRange& r : fresh) {
    if (backoff) {
      nak_list_.defer_unsent(r.from, r.to, now + suppression_backoff());
    } else if (!defer) {
      send_nak(r);
    }
  }
  rearm_nak_timer();
}

sim::SimTime HrmcReceiver::suppression_backoff() {
  const double window =
      kNakBackoffRtts *
      static_cast<double>(std::max<sim::SimTime>(rtt_.srtt(), kern::kJiffy));
  return static_cast<sim::SimTime>(feedback_rng_.uniform(0.0, window));
}

void HrmcReceiver::process_peer_nak(const Header& h, net::Addr from) {
  (void)from;
  if (h.length == 0) return;
  const Seq nak_from = h.rate;
  const Seq nak_to = h.rate + h.length;
  // The peer's NAK will provoke a repair that we will overhear too:
  // push any of our own pending NAKs overlapping the range out past one
  // NAK interval (plus a fresh backoff so the survivors re-desynchronize).
  const sim::SimTime until =
      host_.scheduler().now() + nak_interval() + suppression_backoff();
  const std::size_t deferred = nak_list_.defer(nak_from, nak_to, until);
  if (deferred > 0) {
    stats_.naks_peer_suppressed += deferred;
    trace_.emit(trace::EventKind::kNakPeerSuppress, rcv_nxt_, rcv_nxt_,
                deferred);
    rearm_nak_timer();
  }
}

void HrmcReceiver::after_stream_advance() {
  nak_list_.ack_through(rcv_nxt_);
  nak_mark_ = seq_max(nak_mark_, rcv_nxt_);
  rearm_nak_timer();
  if (complete() && !complete_reported_) {
    complete_reported_ = true;
    if (on_complete) on_complete();
  }
  if (on_readable && !receive_queue_.empty()) on_readable();
}

// --------------------------------------------------------------------
// Flow control: the three rules of §2
// --------------------------------------------------------------------

void HrmcReceiver::check_flow_control(std::uint32_t advertised_rate) {
  const double occ = static_cast<double>(occupancy());
  const double buf = static_cast<double>(cfg_.rcvbuf);
  const int region = occ < kWarnFraction * buf   ? 0
                     : occ < kCritFraction * buf ? 1
                                                 : 2;
  if (region != fc_region_) {
    trace_.emit(trace::EventKind::kRegion, rcv_nxt_, rcv_nxt_,
                static_cast<std::uint64_t>(region),
                static_cast<std::uint32_t>(fc_region_));
    fc_region_ = region;
  }
  if (region == 0) {
    return;  // rule 1: safe region, no action
  }
  const double rtt_s = sim::to_seconds(rtt_.srtt());
  const double empty = buf - occ;
  if (region == 1) {
    // Rule 2: warning region. Request a lower rate if what the sender
    // may emit over the next WARNBUF RTTs exceeds the remaining space.
    const double incoming =
        static_cast<double>(advertised_rate) * kWarnbufRtts * rtt_s;
    if (incoming > empty) {
      const double suggested =
          empty / (static_cast<double>(kWarnbufRtts) *
                   std::max(rtt_s, 1e-6));
      send_control(static_cast<std::uint32_t>(
                       std::max(suggested, 1.0)),
                   /*urgent=*/false);
    }
    return;
  }
  // Rule 3: critical region — stop the sender for two RTTs.
  send_control(cfg_.min_rate, /*urgent=*/true);
}

// --------------------------------------------------------------------
// FEC extension (§6 future work (4))
// --------------------------------------------------------------------

void HrmcReceiver::fec_cache_store(Seq begin, const kern::SkBuff& payload) {
  // Arrival order ~= sequence order; refreshing duplicates is pointless.
  // A begin past every cached one, the common case, skips the scan.
  const bool newest = fec_cache_.empty() || seq_after(begin, fec_cache_high_);
  if (!newest) {
    for (const FecCacheEntry& e : fec_cache_) {
      if (e.begin == begin) return;
    }
  }
  // Fallible allocation: an uncacheable shard only costs FEC its chance
  // to decode this group — ARQ still recovers (fec_note_decode_fail).
  // The ledger charges the payload bytes the shard pins, as it would
  // for a private copy.
  if (!mem_charge(kern::MemComponent::kFecData, payload.size())) return;
  if (newest) fec_cache_high_ = begin;
  fec_cache_.push_back(FecCacheEntry{begin, payload.clone()});
  const std::size_t cap =
      std::max<std::size_t>(1, kFecCacheGroups * cfg_.fec_group);
  while (fec_cache_.size() > cap) {
    mem_uncharge(kern::MemComponent::kFecData,
                 fec_cache_.front().payload->size());
    fec_cache_.pop_front();
  }
}

const HrmcReceiver::FecCacheEntry* HrmcReceiver::fec_cache_find(
    Seq begin) const {
  for (auto it = fec_cache_.rbegin(); it != fec_cache_.rend(); ++it) {
    if (it->begin == begin) return &*it;
  }
  return nullptr;
}

bool HrmcReceiver::holds_bytes(Seq begin, Seq end) const {
  if (seq_before_eq(end, rcv_nxt_)) return true;  // already in the stream
  // The queue is sorted and non-overlapping: only the first segment
  // ending at or past `end` can contain [begin, end).
  const auto seg = std::partition_point(
      out_of_order_queue_.begin(), out_of_order_queue_.end(),
      [end](const OooSeg& s) { return seq_before(s.end, end); });
  return seg != out_of_order_queue_.end() &&
         seq_before_eq(seg->begin, begin) && seq_after_eq(seg->end, end);
}

void HrmcReceiver::process_fec(const Header& h, kern::SkBuffPtr skb) {
  stats_.fec_packets_received++;
  if (cfg_.fec_group == 0 || h.length == 0 || skb->size() != h.length) {
    return;
  }
  mem_relieve_pressure();
  // The wire `rate` is the exact byte span covered: k full shards, or
  // k-1 full plus a short tail when the group was cut short at a
  // sub-MSS packet or end of stream.
  const std::size_t k = (h.rate + h.length - 1) / h.length;
  if (k == 0 || k > fec::kMaxGroup) return;  // sanity bound
  const std::size_t parity_index = h.tries == 0 ? 0 : h.tries - 1;
  if (parity_index >= fec::kMaxParity) return;
  const Seq span_end = h.seq + h.rate;
  if (seq_before_eq(span_end, rcv_nxt_)) return;  // group fully delivered
  // Group straddles a resync anchor: its pre-anchor packets were lost
  // with the crash, yet holds_bytes() vacuously reports them held
  // (end <= rcv_nxt_), so the missing-packet census below would lie.
  // Discard the group; ARQ recovers the post-anchor packets.
  if (seq_before(h.seq, fec_anchor_) && seq_after(span_end, fec_anchor_)) {
    stats_.fec_stale_groups++;
    return;
  }
  fec_parity_store(h.seq, h.rate, static_cast<std::uint8_t>(parity_index),
                   std::move(skb));
  fec_try_decode(h.seq, h.rate, h.length);
}

void HrmcReceiver::fec_parity_store(Seq begin, std::uint32_t span,
                                    std::uint8_t index,
                                    kern::SkBuffPtr payload) {
  for (const FecParityEntry& e : fec_parity_cache_) {
    if (e.begin == begin && e.index == index) return;  // duplicate row
  }
  if (!mem_charge(kern::MemComponent::kFecParity, payload->size())) return;
  fec_parity_cache_.push_back(
      FecParityEntry{begin, span, index, std::move(payload)});
  const std::size_t cap = kFecCacheGroups * fec::kMaxParity;
  while (fec_parity_cache_.size() > cap) {
    mem_uncharge(kern::MemComponent::kFecParity,
                 fec_parity_cache_.front().payload->size());
    fec_parity_cache_.pop_front();
  }
}

void HrmcReceiver::fec_note_decode_fail(Seq begin, Seq span_end,
                                        std::size_t erasures,
                                        std::size_t held) {
  if (fec_fail_noted_ && fec_fail_group_ == begin) return;
  fec_fail_noted_ = true;
  fec_fail_group_ = begin;
  stats_.fec_decode_failures++;
  trace_.emit(trace::EventKind::kFecDecodeFail, begin, span_end, erasures,
              static_cast<std::uint32_t>(held));
}

void HrmcReceiver::fec_try_decode(Seq begin, std::uint32_t span,
                                  std::uint32_t shard_len) {
  const std::size_t k = (span + shard_len - 1) / shard_len;
  const Seq span_end = begin + span;
  // Census: which of the k shards are missing from the stream and the
  // out-of-order queue. The tail shard may be shorter than shard_len.
  const auto shard_bytes = [&](std::size_t i) -> std::uint32_t {
    return i + 1 < k ? shard_len
                     : span - static_cast<std::uint32_t>(k - 1) * shard_len;
  };
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < k; ++i) {
    const Seq b = begin + static_cast<Seq>(i) * shard_len;
    if (!holds_bytes(b, b + shard_bytes(i))) missing.push_back(i);
  }
  if (missing.empty()) return;

  // Parity rows held for this exact group.
  std::vector<fec::ParityShard> parities;
  for (const FecParityEntry& e : fec_parity_cache_) {
    if (e.begin == begin && e.span == span &&
        e.payload->size() == shard_len) {
      parities.push_back(fec::ParityShard{e.index, e.payload->data()});
    }
  }
  if (missing.size() > parities.size()) {
    // More erasures than parity rows in hand. With r > 1 a sibling row
    // may still be in flight, so this is not terminal — but if no
    // further row arrives, ARQ recovers on the normal NAK clock; note
    // the budget overrun once for the trace / stats.
    fec_note_decode_fail(begin, span_end, missing.size(), parities.size());
    return;
  }

  // Gather the present shards. A full-length shard is decoded in place
  // from its cached skb; only the group's tail shard can be short, and
  // it alone is copied, zero-padded to shard_len.
  std::vector<const std::uint8_t*> shards(k, nullptr);
  std::vector<std::uint8_t> padded_tail;
  std::size_t m = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (m < missing.size() && missing[m] == i) {
      ++m;
      continue;  // erasure: decode reconstructs it
    }
    const Seq b = begin + static_cast<Seq>(i) * shard_len;
    const FecCacheEntry* e = fec_cache_find(b);
    if (e == nullptr || e->payload->size() != shard_bytes(i)) {
      // The stream holds this shard but its payload aged out of the
      // bounded cache (or arrived pre-FEC): the group is undecodable.
      fec_note_decode_fail(begin, span_end, missing.size(),
                           parities.size());
      return;
    }
    shards[i] = e->payload->data();
    if (shard_bytes(i) < shard_len) {
      padded_tail.assign(shard_len, 0);
      std::memcpy(padded_tail.data(), shards[i], shard_bytes(i));
      shards[i] = padded_tail.data();
    }
  }

  std::vector<std::vector<std::uint8_t>> out;
  if (!fec::decode(k, shard_len, shards, parities, out)) {
    fec_note_decode_fail(begin, span_end, missing.size(), parities.size());
    return;
  }
  if (fec_fail_noted_ && fec_fail_group_ == begin) fec_fail_noted_ = false;

  // Splice the reconstructed shards in ascending position order.
  for (std::size_t a = 0; a < missing.size(); ++a) {
    const std::size_t i = missing[a];
    const Seq b = begin + static_cast<Seq>(i) * shard_len;
    const std::uint32_t len = shard_bytes(i);
    kern::SkBuffPtr rebuilt = kern::SkBuff::alloc(len, 64);
    std::memcpy(rebuilt->put(len), out[a].data(), len);
    stats_.fec_recoveries++;
    trace_.emit(trace::EventKind::kFecRepair, b, b + len, missing.size());
    fec_cache_store(b, *rebuilt);
    splice_reconstructed(b, std::move(rebuilt));
  }
}

void HrmcReceiver::splice_reconstructed(Seq begin, kern::SkBuffPtr skb) {
  const Seq end = begin + static_cast<Seq>(skb->size());
  // Repairer role: a reconstructed packet is repair currency like any
  // arriving DATA — a child missing it can be answered locally instead
  // of forwarding its NAK upstream. Feed the cache before any trimming
  // below mutates the buffer.
  if (repair_ && skb->size() > 0) {
    Header rh;
    rh.seq = begin;
    rh.length = static_cast<std::uint32_t>(skb->size());
    rh.type = PacketType::kData;
    rh.tries = 2;
    rh.fin = fin_seq_.has_value() && *fin_seq_ == end;
    repair_->cache_data(rh, skb);
  }
  if (occupancy() + skb->size() > cfg_.rcvbuf) return;  // no room
  if (seq_before(begin, rcv_nxt_)) {
    if (seq_before_eq(end, rcv_nxt_)) return;
    skb->pull(static_cast<std::size_t>(seq_diff(begin, rcv_nxt_)));
    begin = rcv_nxt_;
  }
  if (begin == rcv_nxt_) {
    nak_list_.fill(begin, end);
    receive_queue_.push_back(std::move(skb));
    rcv_nxt_ = end;
    drain_out_of_order();
    after_stream_advance();
  } else {
    insert_out_of_order(begin, end, std::move(skb));
  }
}

// --------------------------------------------------------------------
// Memory-pressure robustness (DESIGN.md §16)
// --------------------------------------------------------------------

bool HrmcReceiver::mem_charge(kern::MemComponent c, std::size_t bytes) {
  kern::MemLedger* mem = host_.mem_ledger();
  if (mem == nullptr || bytes == 0) return true;
  if (mem->try_charge(c, bytes)) return true;
  stats_.alloc_fails++;
  trace_.emit(trace::EventKind::kAllocFail, rcv_nxt_, rcv_nxt_, mem->live(),
              static_cast<std::uint32_t>(c));
  return false;
}

void HrmcReceiver::mem_uncharge(kern::MemComponent c, std::size_t bytes) {
  if (bytes == 0) return;
  if (kern::MemLedger* mem = host_.mem_ledger()) mem->uncharge(c, bytes);
}

void HrmcReceiver::mem_uncharge_fec_caches() {
  for (const FecCacheEntry& e : fec_cache_) {
    mem_uncharge(kern::MemComponent::kFecData, e.payload->size());
  }
  for (const FecParityEntry& e : fec_parity_cache_) {
    mem_uncharge(kern::MemComponent::kFecParity, e.payload->size());
  }
}

void HrmcReceiver::mem_relieve_pressure() {
  kern::MemLedger* mem = host_.mem_ledger();
  if (mem == nullptr) return;
  // Drain to a couple of MTUs *below* the line, never flush to it: a
  // ledger pinned at the budget makes the NIC refuse every data frame,
  // and refused frames can never trigger the pass that would unpin it.
  const std::uint64_t slack = kern::kMemEvictHeadroomBytes;
  if (mem->overage(slack) == 0) return;
  // Cheapest first: cached FEC rows are pure optimization — dropping
  // one costs at worst a NAK round trip the protocol already knows how
  // to pay. Parity before data: a dropped parity row loses one repair
  // opportunity, a dropped data shard can spoil its whole group.
  while (mem->overage(slack) > 0 && !fec_parity_cache_.empty()) {
    mem_uncharge(kern::MemComponent::kFecParity,
                 fec_parity_cache_.front().payload->size());
    fec_parity_cache_.pop_front();
    stats_.fec_evictions++;
    trace_.emit(trace::EventKind::kCacheEvict, rcv_nxt_, rcv_nxt_, mem->live(),
                static_cast<std::uint32_t>(kern::MemComponent::kFecParity));
  }
  while (mem->overage(slack) > 0 && !fec_cache_.empty()) {
    mem_uncharge(kern::MemComponent::kFecData,
                 fec_cache_.front().payload->size());
    fec_cache_.pop_front();
    stats_.fec_evictions++;
    trace_.emit(trace::EventKind::kCacheEvict, rcv_nxt_, rcv_nxt_, mem->live(),
                static_cast<std::uint32_t>(kern::MemComponent::kFecData));
  }
  // Still over: give back reassembly state, farthest-from-delivery
  // first (the bytes the stream needs last). Evicted ranges go straight
  // back on the NAK list — eviction degrades to *loss*, recovered on
  // the normal NAK clock, never to a hole the protocol forgot.
  const sim::SimTime now = host_.scheduler().now();
  bool evicted_ooo = false;
  while (mem->overage(slack) > 0 && !out_of_order_queue_.empty()) {
    OooSeg seg = std::move(out_of_order_queue_.back());
    out_of_order_queue_.pop_back();
    const auto len = static_cast<std::size_t>(seq_diff(seg.begin, seg.end));
    ooo_bytes_ -= len;
    mem_uncharge(kern::MemComponent::kReassembly, len);
    stats_.ooo_evictions++;
    trace_.emit(trace::EventKind::kCacheEvict, seg.begin, seg.end, mem->live(),
                static_cast<std::uint32_t>(kern::MemComponent::kReassembly));
    nak_list_.add_gap(seg.begin, seg.end, now);
    evicted_ooo = true;
  }
  if (evicted_ooo) rearm_nak_timer();
}

// --------------------------------------------------------------------
// Probes, keepalives, control responses
// --------------------------------------------------------------------

void HrmcReceiver::process_probe(const Header& h) {
  stats_.probes_received++;
  probe_seen_this_period_ = true;
  answering_probe_ = true;  // outgoing UPDATE/NAKs carry the URG mark
  if (repair_) {
    // A probed repairer answers for its whole subtree: one solicited
    // AGG_UPDATE carries the subtree minimum, and if the repairer is
    // itself behind the probed position it NAKs its own holes too.
    repair_->send_aggregate(/*solicited=*/true);
    if (seq_before(rcv_nxt_, h.seq)) nak_holes_up_to(h.seq);
  } else if (seq_after_eq(rcv_nxt_, h.seq)) {
    send_update();
  } else {
    nak_holes_up_to(h.seq);
  }
  answering_probe_ = false;
}

void HrmcReceiver::process_keepalive(const Header& h) {
  stats_.keepalives_received++;
  if (h.fin) fin_seq_ = h.seq;
  if (seq_after(h.seq, rcv_nxt_)) {
    // The keepalive names data we never saw: the tail of a burst was
    // lost (§2, "NAK-Based Reliability").
    nak_holes_up_to(h.seq);
  }
  if (complete() && !complete_reported_) {
    complete_reported_ = true;
    if (on_complete) on_complete();
  }
}

void HrmcReceiver::process_join_response(const Header& h) {
  if (join_state_ == JoinState::kJoining) {
    join_state_ = JoinState::kJoined;
    if (resync_pending_) {
      // Crash-restart resync: re-anchor the stream at the sender's
      // current position (JOIN_RESPONSE carries snd_nxt). History
      // before it is abandoned — late-join semantics, not recovery.
      rcv_wnd_ = rcv_nxt_ = nak_mark_ = h.seq;
      // Restarting mid-FEC-group: anything cached belongs to the
      // abandoned pre-crash stream position, and a parity group that
      // straddles the new anchor can never be trusted (its pre-anchor
      // packets were lost with the crash).
      fec_anchor_ = h.seq;
      mem_uncharge_fec_caches();
      fec_cache_.clear();
      fec_parity_cache_.clear();
      fec_fail_noted_ = false;
      resync_pending_ = false;
      trace_.emit(trace::EventKind::kResync, rcv_nxt_, rcv_nxt_,
                  host_.addr());
    }
    trace_.emit(trace::EventKind::kJoined, rcv_nxt_, rcv_nxt_, host_.addr(),
                0,
                repair_parent_ != 0 && !repair_failed_over_
                    ? trace::kFlagAggregated
                    : 0);
    rtt_.sample(host_.scheduler().now() - join_sent_at_,
                /*from_retransmit=*/join_tries_ > 1);
    // Reset the retry budget: a long-lived connection on a flapping
    // network re-JOINs many times (stall watchdog), and each handshake
    // deserves the full budget, not the dregs of every earlier one.
    join_tries_ = 0;
    join_timer_.del_timer();
    // The Update Generator runs for the life of the H-RMC connection.
    if (cfg_.mode == Mode::kHrmc) {
      update_timer_.mod_timer_in(update_period_);
    }
  }
}

void HrmcReceiver::process_leave_response(const Header& h) {
  (void)h;
  if (join_state_ == JoinState::kLeaving) {
    join_state_ = JoinState::kLeft;
    join_timer_.del_timer();
  }
}

void HrmcReceiver::process_nak_err(const Header& h) {
  stats_.nak_errs_received++;
  stream_error_ = true;
  // The sender can no longer supply [h.seq, h.seq + h.length): give up on
  // those bytes so the stream (and the application, now informed via
  // stream_error()) can move past the hole.
  const Seq hole_end = h.seq + h.length;
  nak_list_.fill(h.seq, hole_end);
  if (seq_after(hole_end, rcv_nxt_) && seq_before_eq(h.seq, rcv_nxt_)) {
    const auto skipped =
        static_cast<std::uint32_t>(seq_diff(rcv_nxt_, hole_end));
    bytes_skipped_ += skipped;
    rcv_nxt_ = hole_end;
    // The skipped bytes will never be read: advance the consumed
    // boundary past them so window accounting stays aligned.
    rcv_wnd_ += skipped;
    drain_out_of_order();
    after_stream_advance();
  }
  // Given-up bytes above rcv_nxt_ left the NAK list while still missing,
  // so the watermark's claim no longer holds for them.
  nak_mark_ = rcv_nxt_;
  rearm_nak_timer();
}

// --------------------------------------------------------------------
// Feedback emission
// --------------------------------------------------------------------

void HrmcReceiver::send_nak(const NakRange& r) {
  // Repairer failover: a range re-sent past the failover budget means
  // the repair parent is not answering (crashed, partitioned, or left).
  // Re-home all feedback to the sender and re-register there; sticky
  // until crash-restart, so a flapping parent cannot bounce us.
  if (repair_parent_ != 0 && !repair_failed_over_ && sender_addr_ != 0 &&
      r.sends > kRepairFailoverNaks) {
    repair_failed_over_ = true;
    stats_.repair_failovers++;
    send_join();
  }
  stats_.naks_sent++;
  trace_.emit(trace::EventKind::kNakEmit, r.from, r.to, rcv_nxt_, 0,
              answering_probe_ ? trace::kFlagSolicited : 0);
  // NAK: seq = next expected (member-state refresh), rate field = start
  // of the missing range, length = its size (wire.hpp). URG marks a
  // probe-solicited NAK. A repairer reports its subtree minimum, never
  // its own position (see report_position()).
  const auto len = static_cast<std::uint32_t>(seq_diff(r.from, r.to));
  emit(PacketType::kNak, report_position(), r.from, len, answering_probe_);
  if (cfg_.nak_suppression) {
    // SRM: a subtree-scoped multicast copy lets peers missing the same
    // range suppress their own duplicates. Receiver-originated multicast
    // never grafts upward, so the copy stays inside the subtree.
    emit_to(group_.addr, PacketType::kNak, report_position(), r.from, len,
            answering_probe_);
  }
}

void HrmcReceiver::send_update() {
  stats_.updates_sent++;
  trace_.emit(trace::EventKind::kUpdate, rcv_nxt_, rcv_nxt_, occupancy(), 0,
              answering_probe_ ? trace::kFlagSolicited : 0);
  emit(PacketType::kUpdate, rcv_nxt_, 0, 0, answering_probe_);
  if (repair_parent_ != 0 && repair_failed_over_) {
    // Mirror the periodic report to the abandoned repair parent: if it
    // is alive, a stale child entry from before the failover would
    // otherwise freeze its subtree minimum forever (children never
    // expire under kStall) and deadlock the sender's release gate.
    emit_to(repair_parent_, PacketType::kUpdate, rcv_nxt_, 0, 0,
            answering_probe_);
  }
}

void HrmcReceiver::send_control(std::uint32_t requested_rate, bool urgent) {
  stats_.rate_requests_sent++;
  if (urgent) stats_.urgent_requests_sent++;
  trace_.emit(trace::EventKind::kRateRequest, rcv_nxt_, rcv_nxt_,
              requested_rate, urgent ? 1 : 0);
  // CONTROL refreshes our membership record like any feedback, so a
  // repairer must report the subtree minimum here too — its own
  // position would re-anchor the sender's record past a laggard child
  // and open the release gate over bytes that child still needs.
  emit(PacketType::kControl, report_position(), requested_rate, 0, urgent);
}

void HrmcReceiver::send_join() {
  // A JOIN handshake that keeps timing out against a repair parent
  // means the parent is dead or unreachable before we ever registered:
  // fail over to the sender before burning the whole retry budget.
  // Checked on every attempt — not only on the 0.5 s retry timer —
  // because the RTO-paced fast retries in rx() can spend the entire
  // failover budget between two timer ticks while the sender, gating
  // its releases on nobody, runs the whole stream past us.
  if (join_state_ == JoinState::kJoining && repair_parent_ != 0 &&
      !repair_failed_over_ && sender_addr_ != 0 &&
      join_tries_ >= kRepairFailoverNaks) {
    repair_failed_over_ = true;
    stats_.repair_failovers++;
  }
  join_state_ = JoinState::kJoining;
  join_sent_at_ = host_.scheduler().now();
  ++join_tries_;
  if (resync_pending_) {
    trace_.emit(trace::EventKind::kResyncJoin, rcv_nxt_, rcv_nxt_,
                host_.addr());
  }
  // URG on a JOIN marks a crash-restart resync: the sender must anchor
  // this member at its current position, not at our stale rcv_nxt_.
  // A non-URG (re-)JOIN claims the subtree minimum, not our own
  // position: the record it anchors stands for every child below us.
  emit(PacketType::kJoin, report_position(), 0, 0, /*urg=*/resync_pending_);
  join_timer_.mod_timer_in(kJoinRetryJiffies);
}

void HrmcReceiver::send_leave() {
  ++leave_tries_;
  emit(PacketType::kLeave, rcv_nxt_, 0, 0);
  if (repair_parent_ != 0 && repair_failed_over_) {
    // Mirror the LEAVE to the abandoned repair parent, the complement
    // of the send_update mirror: a failed-over child that completes
    // and departs before its first mirrored UPDATE would otherwise
    // leave a frozen entry in the parent's child table — and under
    // kStall (children never expire) that freezes the subtree minimum,
    // deadlocking the sender's release gate on a ghost.
    emit_to(repair_parent_, PacketType::kLeave, rcv_nxt_, 0, 0);
  }
  const int shift = std::min(leave_tries_ - 1, kLeaveBackoffCap);
  join_timer_.mod_timer_in(kJoinRetryJiffies << shift);
}

void HrmcReceiver::forward_child_nak(Seq from, Seq to) {
  if (!seq_before(from, to)) return;
  stats_.naks_forwarded++;
  trace_.emit(trace::EventKind::kNakForward, from, to, rcv_nxt_);
  // Forwarded upward as our own NAK: seq carries the subtree minimum so
  // the sender's record for this repairer never outruns a laggard leaf.
  emit(PacketType::kNak, report_position(), from,
       static_cast<std::uint32_t>(seq_diff(from, to)), answering_probe_);
}

void HrmcReceiver::emit(PacketType type, Seq seq, std::uint32_t rate,
                        std::uint32_t length, bool urg) {
  const net::Addr target = feedback_target();
  if (target == 0) return;  // nowhere to send feedback yet
  emit_to(target, type, seq, rate, length, urg);
}

void HrmcReceiver::emit_to(net::Addr daddr, PacketType type, Seq seq,
                           std::uint32_t rate, std::uint32_t length,
                           bool urg) {
  kern::SkBuffPtr skb = kern::SkBuff::alloc(0, Header::kSize + 44);
  Header h;
  h.sport = group_.port;
  h.dport = group_.port;
  h.seq = seq;
  h.rate = rate;
  h.length = length;
  h.tries = 1;
  h.type = type;
  h.urg = urg;
  write_header(*skb, h);
  skb->daddr = daddr;
  skb->protocol = kIpProtoHrmc;
  host_.send(std::move(skb));
}

// --------------------------------------------------------------------
// Timers
// --------------------------------------------------------------------

void HrmcReceiver::nak_timer_fire() {
  // Timer-driven shrinker pass: when the ledger is pinned at the
  // budget the NIC refuses every data frame, so the arrival-driven
  // relieve calls in process_data/process_fec never run — only the
  // timers can break that cycle (DESIGN.md §16).
  mem_relieve_pressure();
  const sim::SimTime now = host_.scheduler().now();
  for (const NakRange& r : nak_list_.due(now, nak_interval())) {
    send_nak(r);
  }
  rearm_nak_timer();
}

void HrmcReceiver::rearm_nak_timer() {
  if (nak_list_.empty()) {
    nak_timer_.del_timer();
    return;
  }
  const sim::SimTime next = nak_list_.next_due(nak_interval());
  const kern::Jiffies j = std::max<kern::Jiffies>(
      1, kern::to_jiffies(next) - nak_timer_.now_jiffies());
  nak_timer_.mod_timer_in(j);
}

void HrmcReceiver::maybe_stall_rejoin(sim::SimTime now) {
  if (cfg_.data_stall_timeout <= 0 || crashed_ || resync_pending_ ||
      complete() || join_state_ != JoinState::kJoined) {
    return;
  }
  if (last_activity_at_ < 0 ||
      now - last_activity_at_ < cfg_.data_stall_timeout) {
    return;
  }
  if (last_stall_rejoin_ >= 0 &&
      now - last_stall_rejoin_ < cfg_.data_stall_timeout) {
    return;  // one re-graft per silence window; give it time to work
  }
  last_stall_rejoin_ = now;
  stats_.stall_rejoins++;
  trace_.emit(trace::EventKind::kRejoin, rcv_nxt_, rcv_nxt_, host_.addr());
  // A repaired path (link flap healed, routes reconverged) may have been
  // rebuilt without our branch of the multicast tree. Re-graft at the
  // IGMP layer (idempotent) and re-send a *normal* JOIN: unlike the URG
  // resync, our state is intact — history stays NAKable and the stream
  // resumes where it left off.
  host_.join_group(group_.addr);
  send_join();
}

void HrmcReceiver::update_timer_fire() {
  mem_relieve_pressure();  // arrival-independent shrinker pass, as above
  maybe_stall_rejoin(host_.scheduler().now());
  if (repair_) {
    // The repairer's periodic report is the aggregate, never its own
    // position alone: one packet per subtree replaces one per leaf.
    repair_->send_aggregate(/*solicited=*/false);
  } else {
    send_update();
  }
  if (cfg_.dynamic_update_timer) {
    // §3 "Dynamic Update Timers": probes mean the sender is starved for
    // information — speed up; silence means updates suffice — back off.
    const kern::Jiffies before = update_period_;
    if (probe_seen_this_period_) {
      update_period_ = std::max<kern::Jiffies>(kUpdatePeriodMin,
                                               update_period_ - 1);
    } else {
      update_period_ = std::min<kern::Jiffies>(kUpdatePeriodMax,
                                               update_period_ + 1);
    }
    if (update_period_ != before) {
      trace_.emit(trace::EventKind::kUpdatePeriod, rcv_nxt_, rcv_nxt_,
                  static_cast<std::uint64_t>(update_period_),
                  static_cast<std::uint32_t>(before));
    }
  }
  probe_seen_this_period_ = false;
  update_timer_.mod_timer_in(update_period_);
}

void HrmcReceiver::join_timer_fire() {
  // Deferred repairer leave (see close()): retry until the children
  // have detached or the budget is spent, then leave for real.
  if (rehome_tries_ > 0 && join_state_ == JoinState::kJoined) {
    close();
    return;
  }
  if (join_state_ == JoinState::kJoining && join_tries_ < kMaxJoinTries) {
    send_join();
  } else if (join_state_ == JoinState::kLeaving) {
    // Keep trying: a reconvergence blackout can outlast any fixed retry
    // budget, and a LEAVE that never lands strands a ghost member at
    // the sender. The backoff in send_leave keeps persistence cheap.
    send_leave();
  }
}

}  // namespace hrmc::proto
