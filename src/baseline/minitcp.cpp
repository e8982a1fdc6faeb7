#include "baseline/minitcp.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace hrmc::baseline {

using kern::Seq;
using kern::seq_after;
using kern::seq_after_eq;
using kern::seq_before;
using kern::seq_before_eq;
using kern::seq_diff;
using kern::seq_max;
using proto::Header;
using proto::PacketType;

namespace {

constexpr std::size_t kInitCwndSegments = 2;
/// RTT estimate before the first sample.
constexpr sim::SimTime kInitialRtt = sim::milliseconds(100);
constexpr sim::SimTime kMinRto = sim::milliseconds(20);

}  // namespace

// --------------------------------------------------------------------
// Sender
// --------------------------------------------------------------------

MiniTcpSender::MiniTcpSender(net::Host& host, const MiniTcpConfig& cfg,
                             net::Port local_port, net::Endpoint peer)
    : host_(host),
      cfg_(cfg),
      local_port_(local_port),
      peer_(peer),
      cwnd_(kInitCwndSegments * cfg.mss),
      ssthresh_(cfg.sndbuf),
      rtt_(kInitialRtt, sim::microseconds(100)),
      rto_timer_(host.scheduler(), [this] { rto_fire(); }) {
  snd_una_ = snd_nxt_ = cfg_.initial_seq;
  host_.register_transport(kIpProtoMiniTcp, this);
}

MiniTcpSender::~MiniTcpSender() {
  host_.unregister_transport(kIpProtoMiniTcp);
}

void MiniTcpSender::stop() { rto_timer_.del_timer(); }

std::size_t MiniTcpSender::send(std::span<const std::uint8_t> data) {
  if (fin_closed_) return 0;
  std::size_t accepted = 0;
  while (accepted < data.size() && queued_bytes_ < cfg_.sndbuf) {
    const std::size_t take = std::min(
        {data.size() - accepted, cfg_.mss, cfg_.sndbuf - queued_bytes_});
    Segment seg;
    seg.seq_begin = snd_nxt_;
    seg.seq_end = snd_nxt_ + static_cast<Seq>(take);
    seg.payload = kern::SkBuff::alloc(take, Header::kSize + 44);
    std::memcpy(seg.payload->put(take), data.data() + accepted, take);
    segments_.push_back(std::move(seg));
    snd_nxt_ += static_cast<Seq>(take);
    queued_bytes_ += take;
    accepted += take;
  }
  if (accepted > 0) pump();
  return accepted;
}

void MiniTcpSender::close() {
  if (fin_closed_) return;
  fin_closed_ = true;
  if (!segments_.empty() && !segments_.back().sent) {
    segments_.back().fin = true;
    return;
  }
  // Everything already left (possibly already acknowledged): the FIN
  // needs its own reliable, retransmittable segment.
  Segment fin;
  fin.seq_begin = snd_nxt_;
  fin.seq_end = snd_nxt_;
  fin.payload = kern::SkBuff::alloc(0, Header::kSize + 44);
  fin.fin = true;
  segments_.push_back(std::move(fin));
  pump();
}

void MiniTcpSender::pump() {
  while (first_unsent_ < segments_.size()) {
    Segment& seg = segments_[first_unsent_];
    const std::size_t in_flight =
        static_cast<std::size_t>(seq_diff(snd_una_, seg.seq_begin));
    const std::size_t len =
        static_cast<std::size_t>(seq_diff(seg.seq_begin, seg.seq_end));
    if (in_flight + len > cwnd_) break;
    if (seg.tries > 0) {
      stats_.retransmissions++;  // go-back-N resend after a timeout
    } else {
      stats_.data_packets_sent++;
      stats_.bytes_sent += len;
    }
    transmit(seg);
    seg.sent = true;
    ++first_unsent_;
  }
  arm_rto();
}

void MiniTcpSender::transmit(Segment& seg) {
  kern::SkBuffPtr skb = seg.payload->clone();
  Header h;
  h.sport = local_port_;
  h.dport = peer_.port;
  h.seq = seg.seq_begin;
  h.length = static_cast<std::uint32_t>(skb->size());
  if (seg.tries < 255) ++seg.tries;
  h.tries = seg.tries;
  h.type = PacketType::kData;
  h.fin = seg.fin;
  proto::write_header(*skb, h);
  skb->daddr = peer_.addr;
  skb->protocol = kIpProtoMiniTcp;
  seg.last_sent = host_.scheduler().now();
  seg.sent = true;
  host_.send(std::move(skb));
}

void MiniTcpSender::rx(kern::SkBuffPtr skb) {
  auto h = proto::read_header(*skb);
  if (!h || h->dport != local_port_) return;
  if (h->type != PacketType::kUpdate) return;
  on_ack(h->seq, h->fin);
}

void MiniTcpSender::on_ack(Seq ack, bool fin_echo) {
  stats_.acks_received++;
  // A bare FIN (zero-length segment) cannot advance the cumulative ack;
  // it is acknowledged by an ack that echoes the FIN flag (the receiver
  // sets it once the whole stream, including the FIN, is in hand).
  if (fin_echo && !segments_.empty() && segments_.front().fin &&
      segments_.front().seq_begin == segments_.front().seq_end &&
      segments_.front().sent &&
      seq_after_eq(ack, segments_.front().seq_end)) {
    segments_.pop_front();
    if (first_unsent_ > 0) --first_unsent_;
    if (segments_.empty() && fin_closed_ && !finished_reported_) {
      finished_reported_ = true;
      rto_timer_.del_timer();
      if (on_finished) on_finished();
    }
  }
  if (seq_after(ack, snd_una_)) {
    // New data acknowledged.
    dupacks_ = 0;
    rto_backoff_factor_ = 1;
    bool freed = false;
    while (!segments_.empty() &&
           seq_before_eq(segments_.front().seq_end, ack)) {
      Segment& seg = segments_.front();
      if (seg.fin && seg.seq_begin == seg.seq_end) {
        // A bare FIN sits exactly at the cumulative ack; only an ack
        // that echoes the FIN flag (handled above) retires it.
        break;
      }
      if (seg.tries == 1) {
        rtt_.sample(host_.scheduler().now() - seg.last_sent);
      }
      queued_bytes_ -=
          static_cast<std::size_t>(seq_diff(seg.seq_begin, seg.seq_end));
      segments_.pop_front();
      if (first_unsent_ > 0) --first_unsent_;
      freed = true;
    }
    snd_una_ = ack;
    // Window growth: slow start below ssthresh, else linear.
    if (cwnd_ < ssthresh_) {
      cwnd_ += cfg_.mss;
    } else {
      cwnd_ += std::max<std::size_t>(1, cfg_.mss * cfg_.mss / cwnd_);
    }
    pump();
    if (freed && on_writable) on_writable();
    if (fin_closed_ && segments_.empty() && !finished_reported_) {
      finished_reported_ = true;
      rto_timer_.del_timer();
      if (on_finished) on_finished();
    }
  } else if (ack == snd_una_ && !segments_.empty()) {
    if (++dupacks_ == 3) {
      // Fast retransmit + multiplicative decrease.
      stats_.fast_retransmits++;
      stats_.retransmissions++;
      ssthresh_ = std::max(cwnd_ / 2, 2 * cfg_.mss);
      cwnd_ = ssthresh_;
      transmit(segments_.front());
      dupacks_ = 0;
    }
  }
  arm_rto();
}

void MiniTcpSender::arm_rto() {
  if (segments_.empty() || !segments_.front().sent) {
    rto_timer_.del_timer();
    return;
  }
  const sim::SimTime rto =
      std::max(kMinRto, rtt_.rto()) * rto_backoff_factor_;
  rto_timer_.mod_timer_in(
      std::max<kern::Jiffies>(1, kern::to_jiffies(rto)));
}

void MiniTcpSender::rto_fire() {
  if (segments_.empty() || !segments_.front().sent) return;
  stats_.timeouts++;
  ssthresh_ = std::max(cwnd_ / 2, 2 * cfg_.mss);
  cwnd_ = cfg_.mss;
  rto_backoff_factor_ = std::min<sim::SimTime>(rto_backoff_factor_ * 2, 64);
  // Tahoe-style go-back-N: roll snd_nxt back to snd_una; everything
  // unacknowledged will be resent under the collapsed window as ACKs
  // reopen it (a front-segment-only resend recovers one hole per backed-
  // off RTO and grinds multi-loss windows to a halt).
  first_unsent_ = 0;
  pump();
}

// --------------------------------------------------------------------
// Receiver
// --------------------------------------------------------------------

MiniTcpReceiver::MiniTcpReceiver(net::Host& host, const MiniTcpConfig& cfg,
                                 net::Port local_port)
    : host_(host), cfg_(cfg), local_port_(local_port) {
  rcv_nxt_ = cfg_.initial_seq;
  host_.register_transport(kIpProtoMiniTcp, this);
}

MiniTcpReceiver::~MiniTcpReceiver() {
  host_.unregister_transport(kIpProtoMiniTcp);
}

std::size_t MiniTcpReceiver::recv(std::span<std::uint8_t> out) {
  std::size_t copied = 0;
  while (copied < out.size() && !receive_queue_.empty()) {
    const kern::SkBuffPtr& front = receive_queue_.front();
    const std::size_t take = std::min(out.size() - copied, front->size());
    std::memcpy(out.data() + copied, front->data(), take);
    copied += take;
    if (take == front->size()) {
      receive_queue_.pop_front();
    } else {
      receive_queue_.pull_front(take);
    }
  }
  stats_.bytes_delivered += copied;
  return copied;
}

void MiniTcpReceiver::rx(kern::SkBuffPtr skb) {
  auto h = proto::read_header(*skb);
  if (!h || h->dport != local_port_) return;
  if (h->type != PacketType::kData) return;
  peer_ = net::Endpoint{skb->saddr, h->sport};

  Seq begin = h->seq;
  const Seq end = h->seq + h->length;
  if (h->fin) fin_seq_ = end;

  if (seq_before_eq(end, rcv_nxt_) ||
      receive_queue_.bytes() + ooo_bytes_ + h->length > cfg_.rcvbuf) {
    send_ack();
    return;
  }
  if (seq_before(begin, rcv_nxt_)) {
    skb->pull(static_cast<std::size_t>(seq_diff(begin, rcv_nxt_)));
    begin = rcv_nxt_;
  }

  if (begin == rcv_nxt_) {
    receive_queue_.push_back(std::move(skb));
    rcv_nxt_ = end;
    // Drain contiguous out-of-order segments.
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() && seq_before_eq(it->begin, rcv_nxt_)) {
      ooo_bytes_ -= static_cast<std::size_t>(seq_diff(it->begin, it->end));
      if (seq_after(it->end, rcv_nxt_)) {
        it->skb->pull(static_cast<std::size_t>(seq_diff(it->begin, rcv_nxt_)));
        receive_queue_.push_back(std::move(it->skb));
        rcv_nxt_ = it->end;
      }
      ++it;
    }
    out_of_order_.erase(out_of_order_.begin(), it);
    if (on_readable) on_readable();
    if (complete() && !complete_reported_) {
      complete_reported_ = true;
      if (on_complete) on_complete();
    }
  } else {
    // Out of order: store unless a stored segment already covers it.
    // The insertion point is found by scanning from the *tail* — within
    // a loss episode the segments behind the hole still arrive in
    // order, so new segments nearly always sort after everything
    // buffered and the backward scan is O(1). Only the last segment
    // starting at or before `begin` can cover us (any earlier candidate
    // would itself have been covered on insert and rejected).
    auto pos = out_of_order_.end();
    while (pos != out_of_order_.begin() &&
           seq_after(std::prev(pos)->begin, begin)) {
      --pos;
    }
    const bool covered = pos != out_of_order_.begin() &&
                         seq_after_eq(std::prev(pos)->end, end);
    if (!covered) {
      ooo_bytes_ += static_cast<std::size_t>(seq_diff(begin, end));
      out_of_order_.insert(pos, OooSeg{begin, end, std::move(skb)});
    }
  }
  send_ack();
}

void MiniTcpReceiver::send_ack() {
  if (peer_.addr == 0) return;
  stats_.acks_sent++;
  kern::SkBuffPtr skb = kern::SkBuff::alloc(0, Header::kSize + 44);
  Header h;
  h.sport = local_port_;
  h.dport = peer_.port;
  h.seq = rcv_nxt_;
  h.type = PacketType::kUpdate;  // UPDATE doubles as the cumulative ACK
  h.fin = complete();            // echo: the FIN (and everything) arrived
  h.tries = 1;
  proto::write_header(*skb, h);
  skb->daddr = peer_.addr;
  skb->protocol = kIpProtoMiniTcp;
  host_.send(std::move(skb));
}

}  // namespace hrmc::baseline
