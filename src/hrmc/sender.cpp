#include "hrmc/sender.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kern/mem.hpp"

namespace hrmc::proto {

using kern::Seq;
using kern::seq_after;
using kern::seq_after_eq;
using kern::seq_before;
using kern::seq_before_eq;
using kern::seq_diff;
using kern::seq_max;
using kern::seq_min;

HrmcSender::HrmcSender(net::Host& host, const Config& cfg,
                       net::Port local_port, net::Endpoint group)
    : host_(host),
      cfg_(cfg),
      local_port_(local_port),
      group_(group),
      rate_(cfg_),
      rtt_(kInitialRtt, kMinRttClamp),
      transmit_timer_(host.scheduler(), [this] { transmit_pump(); }),
      retrans_timer_(host.scheduler(), [this] { transmit_pump(); }),
      ka_timer_(host.scheduler(), [this] { keepalive_fire(); }),
      join_batch_timer_(host.scheduler(), [this] { join_batch_flush(); }),
      fec_adapt_timer_(host.scheduler(), [this] { fec_adapt_fire(); }),
      alloc_retry_timer_(host.scheduler(), [this] { alloc_retry_fire(); }),
      ka_period_(kKeepaliveInit),
      last_forward_send_(host.scheduler().now()) {
  snd_wnd_ = snd_nxt_ = snd_sent_ = cfg_.initial_seq;
  host_.register_transport(kIpProtoHrmc, this);
  rate_.restart();
  last_pump_ = host_.scheduler().now();
  ka_timer_.mod_timer_in(ka_period_);
  if (cfg_.fec_group > 0) {
    fec_rate_r_ = std::clamp<std::size_t>(cfg_.fec_parity_min, 1,
                                          fec::kMaxParity);
    stats_.fec_parity_rate = fec_rate_r_;
    if (cfg_.fec_adapt_interval > 0) {
      fec_adapt_timer_.mod_timer_in(fec_adapt_jiffies());
    }
  }
}

kern::Jiffies HrmcSender::fec_adapt_jiffies() const {
  return std::max<kern::Jiffies>(
      1, static_cast<kern::Jiffies>(cfg_.fec_adapt_interval / kern::kJiffy));
}

HrmcSender::~HrmcSender() {
  host_.unregister_transport(kIpProtoHrmc);
}

void HrmcSender::stop() {
  // A run can end mid-stall; close the open interval so the stats
  // counter does not under-report (the accessor already included it).
  if (stall_since_ >= 0) {
    const sim::SimTime now = host_.scheduler().now();
    stats_.window_stall_time += now - stall_since_;
    trace_.emit(trace::EventKind::kStallClose, snd_wnd_, snd_wnd_,
                static_cast<std::uint64_t>(now - stall_since_));
    stall_since_ = -1;
  }
  transmit_timer_.del_timer();
  retrans_timer_.del_timer();
  ka_timer_.del_timer();
  join_batch_timer_.del_timer();
  fec_adapt_timer_.del_timer();
  alloc_retry_timer_.del_timer();
}

// --------------------------------------------------------------------
// Application interface (hrmc_sendmsg)
// --------------------------------------------------------------------

std::size_t HrmcSender::send(std::span<const std::uint8_t> data) {
  if (fin_closed_) return 0;
  std::size_t accepted = 0;
  while (accepted < data.size() && queued_bytes_ < cfg_.sndbuf) {
    const std::size_t room_in_buf = cfg_.sndbuf - queued_bytes_;

    // Coalesce into the last record if it is still unsent and short.
    if (!write_queue_.empty() && first_unsent_ < write_queue_.size()) {
      TxRecord& last = write_queue_.back();
      const std::size_t cur = payload_len(last);
      if (!last.sent && cur < cfg_.mss) {
        const std::size_t take = std::min(
            {data.size() - accepted, cfg_.mss - cur, room_in_buf});
        std::memcpy(last.payload->put(take), data.data() + accepted, take);
        last.seq_end += static_cast<Seq>(take);
        snd_nxt_ += static_cast<Seq>(take);
        queued_bytes_ += take;
        accepted += take;
        continue;
      }
    }

    const std::size_t take =
        std::min({data.size() - accepted, cfg_.mss, room_in_buf});
    if (take == 0) break;
    // Fallible allocation: under memory pressure the new window block is
    // refused and the application blocks exactly as on a full sndbuf —
    // the backoff timer (or the next release) re-kicks it.
    if (!charge_send_window()) break;
    TxRecord rec;
    rec.seq_begin = snd_nxt_;
    rec.seq_end = snd_nxt_ + static_cast<Seq>(take);
    rec.payload = kern::SkBuff::alloc(cfg_.mss, Header::kSize + 44);
    std::memcpy(rec.payload->put(take), data.data() + accepted, take);
    write_queue_.push_back(std::move(rec));
    snd_nxt_ += static_cast<Seq>(take);
    queued_bytes_ += take;
    accepted += take;
  }
  if (accepted > 0) arm_transmit_timer();
  return accepted;
}

bool HrmcSender::charge_send_window() {
  kern::MemLedger* mem = host_.mem_ledger();
  if (mem == nullptr) return true;
  if (mem->try_charge(kern::MemComponent::kSendWindow, window_block_bytes())) {
    alloc_retry_period_ = 0;
    return true;
  }
  stats_.alloc_fails++;
  trace_.emit(trace::EventKind::kAllocFail, snd_nxt_, snd_nxt_, mem->live(),
              static_cast<std::uint32_t>(kern::MemComponent::kSendWindow));
  if (!alloc_retry_timer_.pending()) {
    alloc_retry_period_ =
        alloc_retry_period_ == 0
            ? kAllocRetryInit
            : std::min<kern::Jiffies>(alloc_retry_period_ * 2, kAllocRetryMax);
    alloc_retry_timer_.mod_timer_in(alloc_retry_period_);
    stats_.alloc_stalls++;
  }
  return false;
}

void HrmcSender::alloc_retry_fire() {
  // Pressure may have lifted (a fault window closed, a release freed
  // ledger space): let the application try again. If the next charge is
  // refused too, send() re-arms this timer with a doubled period.
  if (on_writable) on_writable();
}

void HrmcSender::close() {
  if (fin_closed_) return;
  fin_closed_ = true;
  if (first_unsent_ < write_queue_.size()) {
    // The last backlogged packet will carry FIN (fec_accumulate flushes
    // the open parity group when it transmits).
    write_queue_.back().fin = true;
  } else {
    // Everything already transmitted (or nothing to send): flush any
    // open parity group — the stream tail must not go unprotected —
    // then announce the end of stream via a FIN-flagged KEEPALIVE.
    if (cfg_.fec_group > 0) fec_flush();
    emit_control_packet(PacketType::kKeepalive, group_.addr, snd_sent_,
                        rate_.rate(), 0, /*urg=*/false, /*fin=*/true);
    stats_.keepalives_sent++;
  }
  arm_transmit_timer();
  maybe_report_finished();
}

bool HrmcSender::finished() const {
  return fin_closed_ && write_queue_.empty();
}

void HrmcSender::maybe_report_finished() {
  if (!finished_reported_ && finished()) {
    finished_reported_ = true;
    if (on_finished) on_finished();
  }
}

// --------------------------------------------------------------------
// Transmitter (transmit_timer)
// --------------------------------------------------------------------

void HrmcSender::arm_transmit_timer() {
  const bool work = !write_queue_.empty() || !retrans_queue_.empty();
  if (work && !transmit_timer_.pending()) {
    transmit_timer_.mod_timer_in(1);
  }
}

void HrmcSender::transmit_pump() {
  const sim::SimTime now = host_.scheduler().now();

  const bool actively_sending =
      first_unsent_ < write_queue_.size() || !retrans_queue_.empty();
  rate_.maybe_grow(now, rtt_.srtt(), actively_sending);

  // Device check: like the kernel driver, the transmitter consults the
  // device queue and requeues instead of flooding a full card. This is
  // why the paper sees no local loss at 10 Mbps — the rate window can
  // grow far past the link without the card eating the difference.
  dev_credit_ = host_.nic() != nullptr
                    ? host_.nic()->tx_free()
                    : std::numeric_limits<std::size_t>::max();
  // Standing queue at the device means the rate window is running above
  // the drain rate; decay toward it (threshold: a quarter of the queue).
  const bool backlogged = first_unsent_ < write_queue_.size();
  if (backlogged && host_.nic() != nullptr &&
      host_.nic()->tx_queue_len() > host_.nic()->config().tx_ring / 4) {
    rate_.on_device_full(now);
  }

  // Budget over the elapsed interval, capped at one jiffy so an idle
  // stretch does not bank into a burst. Computed only after the
  // device-full decay above: the packets sent this jiffy advertise the
  // post-decay rate, and a budget drawn at the pre-decay rate would let
  // the sender spend above its own advertisement — a rule 3 violation
  // the trace checker flags.
  sim::SimTime dt = std::min<sim::SimTime>(now - last_pump_, kern::kJiffy);
  last_pump_ = now;
  std::uint64_t budget = rate_.budget(dt) + budget_carry_;

  budget = service_retransmissions(budget);
  if (!rate_.stopped(now)) {
    budget = send_new_data(budget);
  }
  budget_carry_ = std::min<std::uint64_t>(budget, cfg_.mss);

  try_advance_window();
  arm_transmit_timer();
}

std::uint64_t HrmcSender::send_new_data(std::uint64_t budget) {
  while (first_unsent_ < write_queue_.size()) {
    TxRecord& rec = write_queue_[first_unsent_];
    const std::size_t plen = payload_len(rec);
    if (budget < plen) break;
    if (dev_credit_ == 0) break;  // device queue full: requeue for next jiffy
    --dev_credit_;
    transmit_record(rec, /*retransmission=*/false);
    snd_sent_ = seq_max(snd_sent_, rec.seq_end);
    ++first_unsent_;
    budget -= plen;
    stats_.data_packets_sent++;
    stats_.data_bytes_sent += plen;
    if (cfg_.fec_group > 0) {
      // Parity bytes come out of the same pacing budget as data: the
      // wire stays conformant to the advertised rate with FEC on
      // (trace invariant 3 "including parity bytes").
      const std::uint64_t parity = fec_accumulate(rec);
      budget -= std::min(budget, parity);
    }
  }
  return budget;
}

std::uint64_t HrmcSender::fec_accumulate(const TxRecord& rec) {
  // Parity protects groups of contiguous first transmissions. A short
  // (sub-MSS) packet or the stream FIN closes the group early and the
  // parity flushes over the bytes it actually covers — the seed XOR
  // path discarded the accumulator here, leaving every transfer tail
  // (and every transfer shorter than fec_group packets) unprotected.
  const std::size_t plen = payload_len(rec);
  if (fec_count_ == 0) {
    fec_begin_ = rec.seq_begin;
    fec_parity_.assign(fec_parity_rows(),
                       std::vector<std::uint8_t>(cfg_.mss, 0));
    fec_bytes_ = 0;
  }
  const std::uint8_t* p = rec.payload->data();
  for (std::size_t j = 0; j < fec_parity_.size(); ++j) {
    // Only plen bytes are combined; the shard's tail past plen is
    // implicitly zero (zero-padded coding), contributing nothing.
    fec::accumulate(fec_parity_[j].data(), p, plen,
                    fec::coefficient(j, fec_count_));
  }
  fec_bytes_ += plen;
  ++fec_count_;
  if (fec_count_ >= fec_effective_group() || plen != cfg_.mss || rec.fin) {
    return fec_flush();
  }
  return 0;
}

std::uint64_t HrmcSender::fec_flush() {
  if (fec_count_ == 0) return 0;
  // Parity payload length = the longest shard in the group: mss unless
  // the group is a single sub-MSS packet.
  const std::size_t plen =
      std::min<std::size_t>(cfg_.mss, static_cast<std::size_t>(fec_bytes_));
  std::uint64_t wire = 0;
  kern::MemLedger* mem = host_.mem_ledger();
  for (std::size_t j = 0; j < fec_parity_.size(); ++j) {
    // Parity is an optimization, not a reliability obligation: a parity
    // row whose transmit buffer cannot be allocated is skipped (along
    // with the rest of the group's rows — pressure rarely lifts within
    // one flush) and the ARQ path covers whatever it would have repaired.
    if (mem != nullptr && !mem->admit(plen + Header::kSize + 44)) {
      stats_.fec_parity_skipped += fec_parity_.size() - j;
      stats_.alloc_fails++;
      trace_.emit(trace::EventKind::kAllocFail, fec_begin_,
                  fec_begin_ + static_cast<Seq>(fec_bytes_), mem->live(),
                  static_cast<std::uint32_t>(kern::MemComponent::kFecParity));
      break;
    }
    kern::SkBuffPtr skb = kern::SkBuff::alloc(plen, Header::kSize + 44);
    std::memcpy(skb->put(plen), fec_parity_[j].data(), plen);
    Header h;
    h.sport = local_port_;
    h.dport = group_.port;
    h.seq = fec_begin_;
    // Exact byte span covered (k*mss for a full group; less when the
    // group was cut short), so the receiver can size the tail shard.
    h.rate = static_cast<std::uint32_t>(fec_bytes_);
    h.length = static_cast<std::uint32_t>(plen);
    h.tries = static_cast<std::uint8_t>(j + 1);  // parity row index + 1
    h.type = PacketType::kFec;
    write_header(*skb, h);
    skb->daddr = group_.addr;
    skb->protocol = kIpProtoHrmc;
    stats_.fec_packets_sent++;
    stats_.fec_parity_bytes += plen;
    wire += plen;
    if (dev_credit_ > 0) --dev_credit_;
    host_.send(std::move(skb));
  }
  fec_reset();
  return wire;
}

std::size_t HrmcSender::fec_parity_rows() const {
  const std::size_t r_min =
      std::clamp<std::size_t>(cfg_.fec_parity_min, 1, fec::kMaxParity);
  if (cfg_.fec_adapt_interval <= 0) return r_min;
  return std::clamp<std::size_t>(fec_rate_r_, r_min, fec::kMaxParity);
}

void HrmcSender::fec_adapt_fire() {
  if (cfg_.fec_group == 0 || cfg_.fec_adapt_interval <= 0) return;
  const std::size_t r_min =
      std::clamp<std::size_t>(cfg_.fec_parity_min, 1, fec::kMaxParity);
  const std::size_t r_max = std::clamp<std::size_t>(
      std::max(cfg_.fec_parity_max, cfg_.fec_parity_min), r_min,
      fec::kMaxParity);

  const std::uint64_t naks = stats_.naks_received;
  const std::uint64_t pkts =
      stats_.data_packets_sent + stats_.retransmissions;
  const std::uint64_t d_naks = naks - fec_epoch_naks_;
  const std::uint64_t d_pkts = pkts - fec_epoch_packets_;
  fec_epoch_naks_ = naks;
  fec_epoch_packets_ = pkts;

  // Target from the loss rate the feedback channel reports: NAK ranges
  // per transmitted packet this epoch, scaled to expected losses per
  // group, plus one row of burst headroom whenever loss was seen at all.
  std::size_t target = r_min;
  if (d_pkts > 0 && d_naks > 0) {
    const double loss =
        static_cast<double>(d_naks) / static_cast<double>(d_pkts);
    const double per_group =
        loss * static_cast<double>(fec_effective_group());
    target = std::max<std::size_t>(
        target, static_cast<std::size_t>(std::ceil(per_group)) + 1);
  }
  // AGG_UPDATE subtree minima: a subtree minimum that is far behind the
  // send head AND has stopped advancing for consecutive epochs while
  // data keeps moving means some subtree is losing more than its NAK
  // volume (suppressed / aggregated below us) admits. Lag alone is not
  // a signal — in-flight data lags the send head even on a clean path.
  if (d_pkts > 0 && !members_.empty()) {
    Seq mn = snd_sent_;
    members_.for_each(
        [&](McMember& m) { mn = seq_min(mn, m.next_expected); });
    const std::uint64_t lag =
        static_cast<std::uint64_t>(seq_diff(mn, snd_sent_));
    const std::uint64_t group_bytes =
        static_cast<std::uint64_t>(fec_effective_group()) * cfg_.mss;
    if (group_bytes > 0 && lag > 8 * group_bytes && fec_min_valid_ &&
        mn == fec_epoch_min_) {
      if (++fec_min_stalled_ >= 2) ++target;
    } else {
      fec_min_stalled_ = 0;
    }
    fec_epoch_min_ = mn;
    fec_min_valid_ = true;
  }
  target = std::clamp(target, r_min, r_max);

  // Damped moves: one step per epoch; decreases additionally wait for
  // kFecHysteresisEpochs of consecutive under-target epochs so one
  // quiet epoch inside a loss burst does not shed the protection.
  if (target > fec_rate_r_) {
    ++fec_rate_r_;
    fec_low_epochs_ = 0;
    stats_.fec_rate_increases++;
  } else if (target < fec_rate_r_) {
    if (++fec_low_epochs_ >= kFecHysteresisEpochs) {
      --fec_rate_r_;
      fec_low_epochs_ = 0;
      stats_.fec_rate_decreases++;
    }
  } else {
    fec_low_epochs_ = 0;
  }
  stats_.fec_parity_rate = fec_rate_r_;
  fec_adapt_timer_.mod_timer_in(fec_adapt_jiffies());
}

std::uint64_t HrmcSender::service_retransmissions(std::uint64_t budget) {
  const sim::SimTime now = host_.scheduler().now();
  const sim::SimTime dedup = static_cast<sim::SimTime>(
      kRetransDedupRtts * static_cast<double>(rtt_.srtt()));

  std::vector<RetransRange> remaining;
  bool out_of_budget = false;
  for (std::size_t r = 0; r < retrans_queue_.size(); ++r) {
    RetransRange range = retrans_queue_[r];
    if (out_of_budget) {
      // Budget or device exhausted: every unserviced request survives
      // to the next jiffy.
      remaining.push_back(range);
      continue;
    }
    // Data already released cannot be retransmitted (the NAK_ERR for it
    // was produced at feedback-processing time).
    if (seq_before(range.from, snd_wnd_)) range.from = snd_wnd_;
    for (std::size_t i = 0; i < first_unsent_; ++i) {
      TxRecord& rec = write_queue_[i];
      if (seq_before_eq(rec.seq_end, range.from)) continue;
      if (seq_before_eq(range.to, rec.seq_begin)) break;
      if (!rec.sent) break;  // backlog will flow in order anyway
      if (now - rec.last_retrans < dedup) continue;  // collapsed duplicate
      const std::size_t plen = payload_len(rec);
      if (budget < plen || dev_credit_ == 0) {
        // Keep the unserviced tail of the range for the next jiffy.
        remaining.push_back(RetransRange{rec.seq_begin, range.to});
        out_of_budget = true;
        break;
      }
      --dev_credit_;
      transmit_record(rec, /*retransmission=*/true);
      budget -= plen;
      stats_.retransmissions++;
      stats_.retrans_bytes += plen;
    }
  }
  retrans_queue_ = std::move(remaining);
  return budget;
}

void HrmcSender::transmit_record(TxRecord& rec, bool retransmission) {
  const sim::SimTime now = host_.scheduler().now();
  // The stored payload stays header-free so retransmissions can stamp a
  // fresh header (tries/rate change per attempt): clone shares the data
  // block, and write_header()'s push copy-on-writes only this
  // transmission's copy.
  kern::SkBuffPtr skb = rec.payload->clone();
  Header h;
  h.sport = local_port_;
  h.dport = group_.port;
  h.seq = rec.seq_begin;
  h.rate = rate_.rate();
  h.length = static_cast<std::uint32_t>(payload_len(rec));
  if (rec.tries < 255) ++rec.tries;
  h.tries = rec.tries;
  h.type = PacketType::kData;
  h.fin = rec.fin;
  write_header(*skb, h);
  skb->daddr = group_.addr;
  skb->protocol = kIpProtoHrmc;
  rec.sent = true;
  rec.last_sent = now;
  if (retransmission) rec.last_retrans = now;
  trace_.emit(retransmission ? trace::EventKind::kRetransmit
                             : trace::EventKind::kSend,
              rec.seq_begin, rec.seq_end, h.rate);
  note_forward_activity();
  host_.send(std::move(skb));
}

void HrmcSender::try_advance_window() {
  const sim::SimTime now = host_.scheduler().now();
  const sim::SimTime hold =
      cfg_.minbuf_rtts * std::max<sim::SimTime>(rtt_.srtt(), kern::kJiffy);

  bool freed = false;
  while (!write_queue_.empty()) {
    TxRecord& head = write_queue_.front();
    if (!head.sent) break;
    if (now - head.last_sent < hold) {
      // Optional early probing (§6 future work (1)): start collecting
      // receiver state before the hold expires so small-buffer runs do
      // not degenerate into stop-and-wait.
      if (cfg_.mode == Mode::kHrmc && cfg_.early_probe_rtts > 0 &&
          now - head.last_sent >=
              hold - cfg_.early_probe_rtts * rtt_.srtt() &&
          !members_.empty() && !members_.all_have(head.seq_end)) {
        probe_lacking_members(head.seq_end);
      }
      break;
    }

    const bool complete = members_.all_have(head.seq_end);
    if (!head.release_counted) {
      head.release_counted = true;
      stats_.release_decisions++;
      if (complete) stats_.releases_with_complete_info++;
    }

    if (cfg_.mode == Mode::kHrmc && !members_.empty() && !complete) {
      probe_lacking_members(head.seq_end);
      if (!resolve_dead_members(head.seq_end)) {
        // The window does not advance until every *live* member has the
        // data; from here until release the sender is stalled.
        if (stall_since_ < 0) {
          stall_since_ = now;
          trace_.emit(trace::EventKind::kStallOpen, head.seq_begin,
                      head.seq_end, 0);
        }
        break;
      }
    }

    // Safe (H-RMC) or unconditional (RMC) release.
    if (stall_since_ >= 0) {
      stats_.window_stall_time += now - stall_since_;
      trace_.emit(trace::EventKind::kStallClose, head.seq_begin, head.seq_end,
                  static_cast<std::uint64_t>(now - stall_since_));
      stall_since_ = -1;
    }
    const std::size_t plen = payload_len(head);
    queued_bytes_ -= plen;
    if (kern::MemLedger* mem = host_.mem_ledger()) {
      mem->uncharge(kern::MemComponent::kSendWindow, window_block_bytes());
    }
    snd_wnd_ = head.seq_end;
    trace_.emit(trace::EventKind::kRelease, head.seq_begin, head.seq_end,
                queued_bytes_);
    stats_.packets_released++;
    stats_.bytes_released += plen;
    sent_log_.push_back(SentLogEntry{head.seq_begin, head.seq_end,
                                     head.last_sent, head.tries});
    if (sent_log_.size() > kSentLogCap) sent_log_.pop_front();
    write_queue_.pop_front();
    if (first_unsent_ > 0) --first_unsent_;
    freed = true;
  }

  if (freed) {
    maybe_report_finished();
    if (on_writable) on_writable();
  }
}

sim::SimTime HrmcSender::probe_spacing() const {
  // Probe spacing floored at one jiffy: below that, re-probes could not
  // possibly have been answered yet, and with many receivers the storm
  // of control packets starves the data path at the device queue.
  return std::max<sim::SimTime>(
      static_cast<sim::SimTime>(kProbeIntervalRtts *
                                static_cast<double>(rtt_.srtt())),
      kern::kJiffy);
}

void HrmcSender::refresh_lacking(Seq release_seq) {
  if (lacking_valid_ && lacking_gate_ == release_seq &&
      lacking_version_ == members_.version()) {
    return;
  }
  lacking_cache_.clear();
  members_.for_each([&](McMember& m) {
    if (seq_before(m.next_expected, release_seq)) {
      lacking_cache_.push_back(&m);
    }
  });
  lacking_gate_ = release_seq;
  lacking_version_ = members_.version();
  lacking_valid_ = true;
  stats_.lacking_rebuilds++;
}

void HrmcSender::probe_lacking_members(Seq release_seq) {
  const sim::SimTime now = host_.scheduler().now();

  refresh_lacking(release_seq);
  const sim::SimTime spacing = probe_spacing();
  std::vector<McMember*> lacking;
  std::size_t keep = 0;
  for (McMember* m : lacking_cache_) {
    if (!seq_before(m->next_expected, release_seq)) {
      continue;  // caught up since the cache was built: compact
    }
    lacking_cache_[keep++] = m;
    if (now - m->last_probed >= spacing) lacking.push_back(m);
  }
  lacking_cache_.resize(keep);
  if (lacking.empty()) return;
  trace_.emit(trace::EventKind::kProbe, release_seq, release_seq,
              lacking.size());

  const auto mark_probed = [&](McMember& m) {
    if (m.probe_pending) stats_.probe_retries++;  // previous one unanswered
    m.last_probed = now;
    m.probe_pending = true;
    m.probe_seq = release_seq;
  };

  stats_.probe_rounds++;
  if (cfg_.mcast_probe_threshold > 0 &&
      lacking.size() > cfg_.mcast_probe_threshold) {
    // §6 future work (2): one multicast probe instead of a unicast storm.
    emit_control_packet(PacketType::kProbe, group_.addr, release_seq,
                        rate_.rate(), 0);
    stats_.probes_sent++;
    for (McMember* m : lacking) mark_probed(*m);
    return;
  }
  // Per-round cap: a cold 10k-member table must not burst 10k unicast
  // probes into one jiffy. The rotating cursor puts deferred members
  // first in line next round; their last_probed is untouched, so the
  // spacing check re-selects them immediately.
  std::size_t count = lacking.size();
  std::size_t start = 0;
  if (lacking.size() > kMaxProbesPerRound) {
    stats_.probes_deferred += lacking.size() - kMaxProbesPerRound;
    start = probe_cursor_ % lacking.size();
    count = kMaxProbesPerRound;
    probe_cursor_ = (start + count) % lacking.size();
  }
  for (std::size_t i = 0; i < count; ++i) {
    McMember* m = lacking[(start + i) % lacking.size()];
    emit_control_packet(PacketType::kProbe, m->addr, release_seq,
                        rate_.rate(), 0);
    stats_.probes_sent++;
    mark_probed(*m);
  }
}

bool HrmcSender::resolve_dead_members(Seq release_seq) {
  if (cfg_.eviction_policy == EvictionPolicy::kStall) return false;

  const sim::SimTime now = host_.scheduler().now();
  bool any_dead = false;
  bool live_member_lacking = false;
  std::vector<net::Addr> dead;
  refresh_lacking(release_seq);
  for (const McMember* m : lacking_cache_) {
    if (!seq_before(m->next_expected, release_seq)) continue;
    if (member_dead(*m, now)) {
      any_dead = true;
      dead.push_back(m->addr);
    } else {
      live_member_lacking = true;
    }
  }
  if (!any_dead) return false;

  if (cfg_.eviction_policy == EvictionPolicy::kEvict) {
    for (net::Addr addr : dead) {
      members_.remove(addr);
      stats_.members_evicted++;
      trace_.emit(trace::EventKind::kEvict, release_seq, release_seq, addr);
    }
    // Release only if no live member is still owed the data (the gate
    // keeps holding for stragglers that do answer probes).
    return !live_member_lacking;
  }

  // kRmcFallback: the member stays in the table (its feedback keeps
  // refreshing state, and a NAK for released data earns a NAK_ERR just
  // as in baseline RMC), but it no longer holds the window.
  if (!live_member_lacking) {
    stats_.dead_member_releases++;
    for (net::Addr addr : dead) {
      trace_.emit(trace::EventKind::kDeadRelease, release_seq, release_seq,
                  addr);
    }
    return true;
  }
  return false;
}

sim::SimTime HrmcSender::window_stall_time() const {
  sim::SimTime total = stats_.window_stall_time;
  if (stall_since_ >= 0) total += host_.scheduler().now() - stall_since_;
  return total;
}

// --------------------------------------------------------------------
// Feedback processor (hrmc_master_rcv)
// --------------------------------------------------------------------

void HrmcSender::rx(kern::SkBuffPtr skb) {
  auto h = read_header(*skb);
  if (!h || h->dport != local_port_) {
    stats_.bad_packets++;
    return;
  }
  const net::Addr from = skb->saddr;
  switch (h->type) {
    case PacketType::kNak: process_nak(*h, from); break;
    case PacketType::kControl: process_control(*h, from); break;
    case PacketType::kUpdate: process_update(*h, from); break;
    case PacketType::kAggUpdate: process_agg_update(*h, from); break;
    case PacketType::kJoin: process_join(*h, from); break;
    case PacketType::kLeave: process_leave(*h, from); break;
    default:
      stats_.bad_packets++;
      break;
  }
  try_advance_window();
  arm_transmit_timer();
}

// How long a departed address stays unadoptable. Long enough to outlive
// any straggler feedback still in flight (queueing + a blackout window),
// short enough that a silent rejoin-by-feedback eventually works again.
constexpr sim::SimTime kLeaveTombstone = sim::seconds(5);

McMember* HrmcSender::admit_feedback(net::Addr addr, Seq pos) {
  if (McMember* m = members_.find(addr)) return m;
  const auto tomb = recently_left_.find(addr);
  if (tomb != recently_left_.end()) {
    if (host_.scheduler().now() - tomb->second < kLeaveTombstone) {
      // Straggler feedback from a receiver that already left (its
      // LEAVE raced this packet, or the half-closed peer answered a
      // probe). Re-admitting it would stall the window on a member
      // that will never advance again.
      stats_.ghost_feedback_ignored++;
      return nullptr;
    }
    recently_left_.erase(tomb);
  }
  // Feedback from a receiver whose JOIN we never saw (or, for a
  // repairer's aggregates, a sender restart); adopt it rather than lose
  // reliability.
  return members_.add(addr, pos);
}

void HrmcSender::heard_from(McMember& m, Seq pos, bool solicited) {
  const sim::SimTime now = host_.scheduler().now();
  m.last_heard = now;
  if (!m.probe_pending) return;
  if (solicited) {
    // A marked probe response: an unambiguous RTT sample. (Unsolicited
    // feedback crossing the probe in flight must NOT be timed — with
    // many receivers those crossings are constant and would collapse
    // the estimate toward zero.)
    rtt_.sample(now - m.last_probed);
  } else if (!seq_after_eq(pos, m.probe_seq)) {
    return;  // unsolicited, and short of what the probe asked about
  }
  m.probe_pending = false;
}

McMember* HrmcSender::refresh_member(net::Addr addr, Seq next_expected,
                                     bool solicited) {
  // A receiver cannot expect bytes the sender never assigned: feedback
  // claiming a position beyond snd_nxt (stale resync echo, hostile or
  // mangled packet) must not release window the receivers never earned.
  if (seq_after(next_expected, snd_nxt_)) {
    stats_.feedback_clamped++;
    next_expected = snd_nxt_;
  }
  McMember* m = admit_feedback(addr, next_expected);
  if (m == nullptr) return nullptr;
  members_.advance(m, next_expected);
  heard_from(*m, next_expected, solicited);
  return m;
}

void HrmcSender::take_rtt_sample_for(Seq seq, sim::SimTime now) {
  const std::optional<SentLogEntry> sent = sent_record(seq);
  if (!sent) return;
  const sim::SimTime sample = now - sent->last_sent;
  // Karn's rule: retransmitted data gives ambiguous samples. Beyond
  // that, feedback can reference data sent arbitrarily long ago (a
  // PROBE- or KEEPALIVE-triggered NAK names an old loss); such a
  // delay is not a round trip — but staleness only ever inflates a
  // sample, so a sample *below* the current estimate is always real
  // evidence and is accepted. Upward movement is accepted only while
  // feedback timing is the estimator's source (RMC mode / bootstrap),
  // bounded by 2x RTO; in steady H-RMC the upward direction belongs
  // to solicited probe responses.
  const bool downward = sample < rtt_.srtt();
  const bool upward_ok =
      !rtt_.seeded() ||  // bootstrap: the first coarse sample is what
                         // unsticks a wrong initial estimate
      (feedback_timing_wanted() && sample <= 2 * rtt_.rto());
  rtt_.sample(sample,
              /*from_retransmit=*/sent->tries > 1 || !(downward || upward_ok));
}

std::optional<HrmcSender::SentLogEntry> HrmcSender::sent_record(
    Seq seq) const {
  for (std::size_t i = 0; i < first_unsent_; ++i) {
    const TxRecord& rec = write_queue_[i];
    if (seq_before_eq(rec.seq_end, seq)) continue;
    if (seq_before(seq, rec.seq_begin)) break;
    return SentLogEntry{rec.seq_begin, rec.seq_end, rec.last_sent, rec.tries};
  }
  // Fall back to the released-data log (most recent first).
  for (auto it = sent_log_.rbegin(); it != sent_log_.rend(); ++it) {
    if (seq_before(seq, it->begin)) continue;
    if (seq_before_eq(it->end, seq)) break;  // older than anything logged
    return *it;
  }
  return std::nullopt;
}

void HrmcSender::queue_retransmission(Seq from, Seq to) {
  if (!seq_before(from, to)) return;
  retrans_queue_.push_back(RetransRange{from, to});
  if (!retrans_timer_.pending()) retrans_timer_.mod_timer_in(1);
}

void HrmcSender::process_nak(const Header& h, net::Addr from) {
  stats_.naks_received++;

  const Seq range_from = h.rate;  // NAK reuses the rate field (wire.hpp)
  const Seq range_to = range_from + h.length;
  // Validate the request against the send window before acting on it: a
  // correct receiver can only NAK a gap below data it has already seen,
  // so every byte of the range lies below snd_sent. An empty range, a
  // range longer than any window could be, or one naming bytes never
  // sent is garbage — retransmitting from it would emit bytes that do
  // not exist, and feeding it to the rate controller punishes the whole
  // group for a forged loss.
  if (h.length == 0 || h.length > (1u << 30) ||
      seq_after_eq(range_from, snd_sent_) ||
      seq_after(range_to, snd_sent_)) {
    stats_.naks_invalid++;
    return;
  }

  // A probe-solicited NAK (URG mark) answers that probe; refresh_member
  // times it cleanly against the probe's send time, and a data-based
  // sample would mis-attribute the old loss as a round trip.
  const bool answers_probe = h.urg;
  McMember* member = refresh_member(from, h.seq, h.urg);
  if (member == nullptr) return;  // tombstoned ghost: its loss is moot
  // Freshness is judged against the RTO as it stood *before* this NAK's
  // own timing feeds the estimator (a stale bootstrap sample would
  // otherwise inflate the RTO enough to call itself fresh).
  const sim::SimTime fresh_bound = 2 * rtt_.rto() + kern::kJiffy;
  if (!answers_probe) {
    // RTT from the NAK'd data's send time (window first, then the
    // released-data log). This is a sound sample source: a NAK cannot
    // arrive earlier than one detection delay plus one round trip after
    // the missing data was sent. (RMC "estimates the worst RTT based on
    // incoming NAKs and rate-reduce requests"; rate requests reference
    // rcv_nxt, whose packet may be freshly in flight, so only the NAK's
    // missing-range timing is used here.)
    take_rtt_sample_for(range_from, host_.scheduler().now());
  }

  if (seq_before_eq(range_to, snd_wnd_)) {
    // Entire request is below the window: the data is gone. But the
    // sender only releases bytes every member confirmed — so if *this*
    // member's own reports already cover the range, the NAK is a stale
    // duplicate (reordered or duplicated feedback arriving after its
    // retransmission was received and acknowledged), not a reliability
    // gap. Answering it with NAK_ERR would declare an error the
    // receiver never experienced.
    if (member != nullptr && seq_after_eq(member->next_expected, range_to)) {
      stats_.naks_stale++;
      return;
    }
    // Genuinely unsatisfiable (RMC mode released unconfirmed data, or
    // the member was evicted): inform the receiver — the RMC
    // reliability gap, surfaced.
    emit_control_packet(PacketType::kNakErr, from, range_from, 0, h.length);
    stats_.nak_errs_sent++;
    trace_.emit(trace::EventKind::kNakErr, range_from, range_to, from);
  } else {
    if (seq_before(range_from, snd_wnd_)) {
      // Front of the request is gone; the rest is retransmittable.
      emit_control_packet(PacketType::kNakErr, from, range_from, 0,
                          static_cast<std::uint32_t>(
                              seq_diff(range_from, snd_wnd_)));
      stats_.nak_errs_sent++;
      trace_.emit(trace::EventKind::kNakErr, range_from, snd_wnd_, from);
    }
    queue_retransmission(seq_max(range_from, snd_wnd_), range_to);
  }

  // The multiplicative decrease applies only to *fresh* loss — a NAK
  // referencing data sent long ago (a late joiner catching up, a probed
  // straggler) says nothing about current congestion, and reacting to a
  // catch-up NAK stream would pin the rate at the minimum.
  const std::optional<SentLogEntry> sent = sent_record(range_from);
  const sim::SimTime now = host_.scheduler().now();
  const bool fresh = sent && now - sent->last_sent <= fresh_bound;
  const std::uint32_t rate_before = rate_.rate();
  if (fresh &&
      rate_.on_negative_feedback(
          now, static_cast<sim::SimTime>(kRateCutHoldoffRtts *
                                         static_cast<double>(rtt_.srtt())))) {
    stats_.rate_cuts++;
    trace_.emit(trace::EventKind::kRateCut, range_from, range_to,
                rate_.rate(), rate_before);
  }
}

void HrmcSender::process_control(const Header& h, net::Addr from) {
  stats_.rate_requests_received++;
  if (refresh_member(from, h.seq, /*solicited=*/false) == nullptr) {
    return;  // tombstoned ghost: its rate demands no longer bind the group
  }
  const sim::SimTime now = host_.scheduler().now();
  const std::uint32_t rate_before = rate_.rate();
  if (h.urg) {
    stats_.urgent_requests_received++;
    stats_.urgent_stops++;
    stats_.slow_start_entries++;
    rate_.on_urgent(now, rtt_.srtt());
    trace_.emit(trace::EventKind::kUrgentStop, h.seq, h.seq,
                static_cast<std::uint64_t>(rate_.stopped_until()),
                rate_.rate());
  } else {
    if (rate_.on_negative_feedback(
            now,
            static_cast<sim::SimTime>(kRateCutHoldoffRtts *
                                      static_cast<double>(rtt_.srtt())),
            h.rate)) {
      stats_.rate_cuts++;
      trace_.emit(trace::EventKind::kRateCut, h.seq, h.seq, rate_.rate(),
                  rate_before);
    }
  }
}

void HrmcSender::process_update(const Header& h, net::Addr from) {
  stats_.updates_received++;
  refresh_member(from, h.seq, /*solicited=*/h.urg);
}

void HrmcSender::process_agg_update(const Header& h, net::Addr from) {
  stats_.agg_updates_received++;
  // The aggregate is the minimum over the repairer's subtree, so it may
  // legitimately move *backward* (a laggard child registered under the
  // repairer after its last report). refresh_member's monotone
  // advance() would ignore that and release data the new child still
  // needs — this is the one feedback path that sets the position in
  // either direction. Clamp into [snd_wnd_, snd_nxt_]: beyond the head
  // would release window the subtree never earned; below the window
  // names bytes already gone, which gating on would wedge the release
  // head forever.
  Seq pos = h.seq;
  if (seq_after(pos, snd_nxt_)) {
    stats_.feedback_clamped++;
    pos = snd_nxt_;
  }
  if (seq_before(pos, snd_wnd_)) pos = snd_wnd_;

  McMember* m = admit_feedback(from, pos);
  if (m == nullptr) return;
  members_.set_position(m, pos);
  members_.set_multiplicity(m, std::max<std::uint32_t>(h.rate, 1));
  heard_from(*m, pos, /*solicited=*/h.urg);
}

void HrmcSender::process_join(const Header& h, net::Addr from) {
  stats_.joins_received++;
  const sim::SimTime now = host_.scheduler().now();
  // An explicit (re-)JOIN always clears the departure tombstone: the
  // receiver is unambiguously announcing itself, not straggling.
  recently_left_.erase(from);
  if (h.urg) {
    // Resync JOIN from a crash-restarted receiver: it abandons whatever
    // history it held, so its membership record must NOT anchor at its
    // stale h.seq (that would re-stall the window on data the receiver
    // will never NAK). The handshake must also be *idempotent*: a
    // retried URG JOIN (first response lost or merely delayed) must
    // earn the SAME anchor, or the receiver could adopt a late first
    // response while the sender gates on a newer one — a release-safety
    // split that lets the window sail past the receiver's position. So
    // a member the sender still holds keeps its recorded anchor (that
    // data is still buffered and NAKable under the release gate); only
    // a genuinely unknown record anchors at the current head.
    stats_.resync_joins_received++;
    McMember* m = members_.find(from);
    if (m == nullptr) m = members_.add(from, snd_nxt_);
    m->last_heard = now;
    m->probe_pending = false;
    emit_control_packet(PacketType::kJoinResponse, from, m->next_expected,
                        rate_.rate(), 0, /*urg=*/false, /*fin=*/false);
    return;
  }
  // Anchor new members at the first data position they reported, never
  // beyond the stream head (a forged future position would corrupt the
  // cached release minimum).
  const Seq anchor = seq_min(seq_max(h.seq, cfg_.initial_seq), snd_nxt_);

  if (cfg_.join_batch_threshold > 0) {
    // Batched admission: per JOIN we do the O(1) table insert only.
    // Once a burst exceeds the threshold, the per-JOIN unicast response
    // (and the O(window) RTT lookup) is replaced by one multicast
    // JOIN_RESPONSE on the next jiffy — receivers in kJoining accept it
    // regardless of addressing, so a flash crowd of 10k JOINs inside
    // one RTT costs 10k inserts plus a single control packet.
    if (now - last_join_at_ > kern::kJiffy) joins_since_flush_ = 0;
    last_join_at_ = now;
    ++joins_since_flush_;
    members_.add(from, anchor)->last_heard = now;
    if (join_batch_pending_) return;
    if (joins_since_flush_ >= cfg_.join_batch_threshold) {
      join_batch_pending_ = true;
      join_batch_timer_.mod_timer_in(1);
      return;
    }
  } else {
    // A JOIN answers the first data packet the receiver saw: it carries
    // the only RTT evidence the sender gets from loss-free receivers in
    // RMC mode (worst-RTT estimation starts here).
    take_rtt_sample_for(h.seq, now);
    members_.add(from, anchor)->last_heard = now;
  }
  emit_control_packet(PacketType::kJoinResponse, from, snd_nxt_,
                      rate_.rate(), 0, /*urg=*/false, /*fin=*/false);
}

void HrmcSender::join_batch_flush() {
  join_batch_pending_ = false;
  joins_since_flush_ = 0;
  emit_control_packet(PacketType::kJoinResponse, group_.addr, snd_nxt_,
                      rate_.rate(), 0, /*urg=*/false, /*fin=*/false);
  stats_.join_batch_responses++;
}

void HrmcSender::process_leave(const Header& h, net::Addr from) {
  (void)h;
  stats_.leaves_received++;
  members_.remove(from);
  recently_left_[from] = host_.scheduler().now();
  if (recently_left_.size() >= 4096) {
    // Keep the tombstone map bounded through a mass-departure storm.
    const sim::SimTime now = host_.scheduler().now();
    std::erase_if(recently_left_, [&](const auto& e) {
      return now - e.second >= kLeaveTombstone;
    });
  }
  emit_control_packet(PacketType::kLeaveResponse, from, snd_nxt_, 0, 0);
}

// --------------------------------------------------------------------
// Keepalive controller (ka_timer)
// --------------------------------------------------------------------

void HrmcSender::note_forward_activity() {
  last_forward_send_ = host_.scheduler().now();
  ka_period_ = kKeepaliveInit;
  ka_timer_.mod_timer_in(ka_period_);
}

void HrmcSender::keepalive_fire() {
  const sim::SimTime now = host_.scheduler().now();
  const sim::SimTime idle = now - last_forward_send_;
  if (idle >= kern::from_jiffies(ka_period_)) {
    // KEEPALIVE carries the last *transmitted* sequence so receivers can
    // detect a lost tail; after close() it also carries FIN.
    const bool all_sent = first_unsent_ >= write_queue_.size();
    emit_control_packet(PacketType::kKeepalive, group_.addr, snd_sent_,
                        rate_.rate(), 0, /*urg=*/false,
                        /*fin=*/fin_closed_ && all_sent);
    stats_.keepalives_sent++;
    ka_period_ = std::min<kern::Jiffies>(ka_period_ * 2, kKeepaliveMax);
  }
  ka_timer_.mod_timer_in(ka_period_);
}

// --------------------------------------------------------------------
// Packet construction
// --------------------------------------------------------------------

void HrmcSender::emit_control_packet(PacketType type, net::Addr dst_addr,
                                     Seq seq, std::uint32_t rate,
                                     std::uint32_t length, bool urg,
                                     bool fin) {
  kern::SkBuffPtr skb = kern::SkBuff::alloc(0, Header::kSize + 44);
  Header h;
  h.sport = local_port_;
  h.dport = group_.port;
  h.seq = seq;
  h.rate = rate;
  h.length = length;
  h.tries = 1;
  h.type = type;
  h.urg = urg;
  h.fin = fin;
  write_header(*skb, h);
  skb->daddr = dst_addr;
  skb->protocol = kIpProtoHrmc;
  host_.send(std::move(skb));
}

}  // namespace hrmc::proto
