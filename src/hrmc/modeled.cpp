#include "hrmc/modeled.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace hrmc::proto {

using kern::Seq;
using kern::seq_after;
using kern::seq_after_eq;
using kern::seq_before;
using kern::seq_before_eq;
using kern::seq_diff;
using kern::seq_max;
using kern::seq_min;

ModeledReceiver::ModeledReceiver(net::Host& host, const Config& cfg,
                                 net::Endpoint group,
                                 std::uint32_t population, double leaf_loss,
                                 net::Addr sender_hint)
    : host_(host),
      cfg_(cfg),
      group_(group),
      sender_addr_(sender_hint),
      population_(std::max<std::uint32_t>(population, 1)),
      leaf_loss_(std::clamp(leaf_loss, 0.0, 1.0)),
      leaf_log1mp_(std::log1p(-leaf_loss_)),
      no_loss_draw_(no_loss_draw_bound(population_, leaf_log1mp_)),
      rng_(sim::substream_seed(
          sim::substream_seed(cfg.feedback_seed, "modeled-rx"),
          std::to_string(host.addr()))),
      nak_timer_(host.scheduler(), [this] { nak_timer_fire(); }),
      update_timer_(host.scheduler(), [this] { update_timer_fire(); }) {
  baseline_ = rcv_high_ = cfg_.initial_seq;
}

ModeledReceiver::~ModeledReceiver() {
  host_.unregister_transport(kIpProtoHrmc);
}

void ModeledReceiver::open() {
  host_.register_transport(kIpProtoHrmc, this);
  host_.join_group(group_.addr);
}

void ModeledReceiver::stop() {
  nak_timer_.del_timer();
  update_timer_.del_timer();
}

bool ModeledReceiver::complete() const {
  return fin_seq_.has_value() && holes_.empty() &&
         seq_after_eq(rcv_high_, *fin_seq_);
}

Seq ModeledReceiver::population_min() const {
  // Holes are sorted and new ones only ever form above the old high
  // water, so the front hole is the population's slowest position.
  return holes_.empty() ? rcv_high_ : holes_.front().begin;
}

sim::SimTime ModeledReceiver::nak_interval() const {
  return std::max<sim::SimTime>(
      static_cast<sim::SimTime>(kNakResendRtts *
                                static_cast<double>(kInitialRtt)),
      2 * kern::kJiffy);
}

// --------------------------------------------------------------------
// Statistical loss model
// --------------------------------------------------------------------

std::uint64_t no_loss_draw_bound(std::uint64_t n, double log1mp) {
  // The first skip is at least n iff u >= 1 - (1-p)^n.
  const double q = -std::expm1(static_cast<double>(n) * log1mp);
  return static_cast<std::uint64_t>(std::ceil(q * (1.0 + 1e-9) * 0x1.0p53));
}

std::uint32_t ModeledReceiver::draw_losses(std::uint64_t n, double p) {
  if (p <= 0.0 || n == 0) return 0;
  if (p >= 1.0) return static_cast<std::uint32_t>(n);
  const double mean = static_cast<double>(n) * p;
  if (mean > 64.0) {
    // Normal approximation (n·p and n·(1-p) both large here), clamped
    // into [0, n]. Box–Muller from two uniforms.
    const double u1 = std::max(rng_.next_double(), 1e-12);
    const double u2 = rng_.next_double();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double x = mean + z * std::sqrt(mean * (1.0 - p));
    return static_cast<std::uint32_t>(
        std::clamp(x, 0.0, static_cast<double>(n)));
  }
  // Geometric skipping: expected O(n·p + 1) draws.
  const double log1mp = p == leaf_loss_ ? leaf_log1mp_ : std::log1p(-p);
  std::uint64_t bits = rng_.next_u64() >> 11;  // as Rng::next_double
  // The population draw mostly counts no loss: its first skip passes n
  // from no_loss_draw_ on, which needs no libm call to tell.
  if (n == population_ && p == leaf_loss_ && bits >= no_loss_draw_) return 0;
  std::uint64_t count = 0;
  std::uint64_t i = 0;
  while (true) {
    const double u = static_cast<double>(bits) * 0x1.0p-53;
    const auto skip = static_cast<std::uint64_t>(
        std::floor(std::log1p(-u) / log1mp));
    i += skip + 1;
    if (i > n) break;
    ++count;
    bits = rng_.next_u64() >> 11;
  }
  return static_cast<std::uint32_t>(count);
}

// --------------------------------------------------------------------
// Packet reception
// --------------------------------------------------------------------

void ModeledReceiver::rx(kern::SkBuffPtr skb) {
  auto h = read_header(*skb);
  if (!h || h->dport != group_.port) {
    stats_.bad_packets++;
    return;
  }
  if (sender_addr_ == 0 && !net::is_multicast(skb->saddr) &&
      (h->type == PacketType::kData || h->type == PacketType::kFec ||
       h->type == PacketType::kProbe || h->type == PacketType::kKeepalive)) {
    sender_addr_ = skb->saddr;
  }
  switch (h->type) {
    case PacketType::kData: process_data(*h); break;
    case PacketType::kFec: process_fec(*h); break;
    case PacketType::kProbe: process_probe(*h); break;
    case PacketType::kKeepalive: process_keepalive(*h); break;
    case PacketType::kJoinResponse:
      if (!joined_) {
        joined_ = true;
        trace_.emit(trace::EventKind::kJoined, baseline_, baseline_,
                    host_.addr());
        if (cfg_.mode == Mode::kHrmc) {
          update_timer_.mod_timer_in(kUpdatePeriodInit);
        }
        maybe_complete();
      }
      break;
    case PacketType::kNakErr: {
      // The sender gave up on the range: every leaf skips it.
      const Seq from = h->seq;
      const Seq to = h->seq + h->length;
      stats_.nak_errs_received++;
      std::erase_if(holes_, [&](const Hole& hole) {
        return seq_after_eq(hole.begin, from) && seq_before_eq(hole.end, to);
      });
      maybe_complete();
      break;
    }
    default:
      break;  // feedback types are not addressed to a population
  }
}

void ModeledReceiver::process_data(const Header& h) {
  if (h.length == 0) return;
  stats_.data_packets_received++;
  stats_.data_bytes_received += h.length;
  const Seq begin = h.seq;
  const Seq end = h.seq + h.length;
  if (h.fin) fin_seq_ = end;

  if (!started_) {
    // Late-join semantics, like a real receiver: the population's
    // stream starts at the first packet it sees.
    started_ = true;
    baseline_ = begin;
    rcv_high_ = begin;
    if (!join_sent_ && sender_addr_ != 0) send_join();
  } else if (!joined_ && sender_addr_ != 0 &&
             host_.scheduler().now() - join_sent_at_ >=
                 2 * kInitialRtt) {
    stats_.join_fast_retries++;
    send_join();  // lost JOIN / response: data flowing proves the path
  }

  if (seq_before_eq(end, rcv_high_)) {
    // Retransmission of something below the high water: each leaf still
    // missing an overlapping range receives it now, minus its own iid
    // loss on this delivery too. Whatever survives the draw is a pure
    // tail hole from here on — the bytes just entered the subtree, so
    // the local repairer can finish the job without the sender.
    const sim::SimTime now = host_.scheduler().now();
    bool changed = false;
    for (Hole& hole : holes_) {
      if (seq_before_eq(hole.end, begin) || seq_before_eq(end, hole.begin)) {
        continue;
      }
      const std::uint32_t still =
          draw_losses(hole.leaves_missing, leaf_loss_);
      if (still == 0) {
        hole.leaves_missing = 0;  // swept below
        changed = true;
      } else {
        hole.leaves_missing = still;
        if (hole.shared) {
          hole.shared = false;
          hole.repair_at = now + nak_interval();
        }
      }
    }
    if (changed) {
      std::erase_if(holes_,
                    [](const Hole& hole) { return hole.leaves_missing == 0; });
    } else {
      stats_.duplicate_packets++;
    }
    // A FIN first seen on a duplicate completes the stream too.
    maybe_complete();
    return;
  }

  // Shared-path gap: bytes between the high water and this packet never
  // reached the subtree at all — every leaf is missing them and only
  // the sender can repair.
  if (seq_after(begin, rcv_high_)) {
    stats_.out_of_order_packets++;
    holes_.push_back(Hole{rcv_high_, begin, population_, true, -1, -1, 0});
  }
  // This packet: one binomial draw decides how many leaves lost it
  // independently on their own tails. The subtree head has the bytes,
  // so the implicit local repairer serves these leaves one local repair
  // round trip from now — no upstream NAK.
  std::uint32_t lost = draw_losses(population_, leaf_loss_);
  if (lost > 0 && cfg_.fec_group > 0) {
    // FEC thinning: a leaf that lost this packet decodes it from the
    // group's parity unless its own losses exceed the budget — only the
    // excess forms a hole. The extra draw is gated on fec_group so
    // FEC-free scenarios keep their rng digest bit-identical.
    const std::uint32_t unrepaired = draw_losses(lost, fec_unrepaired_prob());
    stats_.fec_recoveries += lost - unrepaired;
    lost = unrepaired;
  }
  if (lost > 0) {
    holes_.push_back(Hole{seq_max(begin, rcv_high_), end, lost, false,
                          host_.scheduler().now() + nak_interval(), -1, 0});
  }
  rcv_high_ = end;
  if (!holes_.empty()) nak_timer_.mod_timer_in(1);
  maybe_complete();
}

void ModeledReceiver::note_tail(Seq upto) {
  // PROBE/KEEPALIVE names data we never saw: the tail was lost on the
  // shared path — every leaf is missing it.
  if (seq_after(upto, rcv_high_)) {
    holes_.push_back(Hole{rcv_high_, upto, population_, true, -1, -1, 0});
    rcv_high_ = upto;
    nak_timer_.mod_timer_in(1);
  }
}

double ModeledReceiver::fec_unrepaired_prob() const {
  const std::size_t k = std::min(cfg_.fec_group, fec::kMaxGroup);
  std::size_t r = fec_budget_;
  if (r == 0) {
    // No parity observed yet: assume the sender's configured floor.
    r = std::clamp<std::size_t>(cfg_.fec_parity_min, 1, fec::kMaxParity);
  }
  const double p = leaf_loss_;
  if (p >= 1.0) return 1.0;
  if (k == 0) return 1.0;
  // P(Bin(k-1, p) >= r) via the complement of the pmf prefix sum.
  const std::size_t n = k - 1;
  double pmf = std::pow(1.0 - p, static_cast<double>(n));
  double cum = 0.0;
  for (std::size_t x = 0; x < r && x <= n; ++x) {
    cum += pmf;
    pmf *= static_cast<double>(n - x) / static_cast<double>(x + 1) * p /
           (1.0 - p);
  }
  return std::clamp(1.0 - cum, 0.0, 1.0);
}

void ModeledReceiver::process_fec(const Header& h) {
  stats_.fec_packets_received++;
  if (cfg_.fec_group == 0 || h.length == 0) return;
  const std::size_t k = (h.rate + h.length - 1) / h.length;
  if (k == 0 || k > fec::kMaxGroup) return;
  const std::size_t parity_index = h.tries == 0 ? 0 : h.tries - 1;
  if (parity_index >= fec::kMaxParity) return;
  // Track the sender's current parity budget from the rows on the wire;
  // it feeds fec_unrepaired_prob() as the adaptive rate moves.
  if (!fec_group_valid_ || fec_group_begin_ != h.seq) {
    fec_group_valid_ = true;
    fec_group_begin_ = h.seq;
    fec_budget_ = 0;
  }
  fec_budget_ = std::max(fec_budget_, parity_index + 1);

  const Seq span_end = h.seq + h.rate;
  // The parity names data through span_end: tail bytes the subtree
  // never saw were lost on the shared path (like a KEEPALIVE).
  note_tail(span_end);

  // Shared-path erasures inside the group span, in shard units. Tail
  // (!shared) holes are not erasures — the subtree head has those bytes.
  std::size_t erasures = 0;
  for (const Hole& hole : holes_) {
    if (!hole.shared) continue;
    const Seq b = seq_max(hole.begin, h.seq);
    const Seq e = seq_min(hole.end, span_end);
    if (!seq_before(b, e)) continue;
    erasures += (static_cast<std::uint32_t>(seq_diff(b, e)) + h.length - 1) /
                h.length;
  }
  if (erasures == 0) return;
  if (erasures > fec_budget_) {
    // More group losses than parity rows: the leaves fall back to ARQ
    // (the holes keep NAKing upstream). Report once per group.
    if (!fec_fail_noted_ || fec_fail_group_ != h.seq) {
      fec_fail_noted_ = true;
      fec_fail_group_ = h.seq;
      stats_.fec_decode_failures++;
      trace_.emit(trace::EventKind::kFecDecodeFail, h.seq, span_end, erasures,
                  static_cast<std::uint32_t>(fec_budget_));
    }
    return;
  }
  if (fec_fail_noted_ && fec_fail_group_ == h.seq) fec_fail_noted_ = false;

  // Every leaf holds the parity (modulo second-order tail loss) and at
  // most `budget` erasures: the whole population decodes locally and no
  // NAK ever goes upstream. Repair the shared holes' overlap.
  std::vector<Hole> kept;
  kept.reserve(holes_.size() + 1);
  for (Hole& hole : holes_) {
    const Seq b = seq_max(hole.begin, h.seq);
    const Seq e = seq_min(hole.end, span_end);
    if (!hole.shared || !seq_before(b, e)) {
      kept.push_back(std::move(hole));
      continue;
    }
    stats_.fec_recoveries +=
        (static_cast<std::uint32_t>(seq_diff(b, e)) + h.length - 1) /
        h.length;
    trace_.emit(trace::EventKind::kFecRepair, b, e, erasures);
    if (seq_before(hole.begin, b)) {
      kept.push_back(Hole{hole.begin, b, hole.leaves_missing, true, -1,
                          hole.last_nak, hole.sends});
    }
    if (seq_before(e, hole.end)) {
      kept.push_back(Hole{e, hole.end, hole.leaves_missing, true, -1,
                          hole.last_nak, hole.sends});
    }
  }
  holes_ = std::move(kept);
  maybe_complete();
}

void ModeledReceiver::process_probe(const Header& h) {
  stats_.probes_received++;
  note_tail(h.seq);
  send_aggregate(/*solicited=*/true);
  if (!holes_.empty()) nak_timer_fire();  // the sender is waiting
}

void ModeledReceiver::process_keepalive(const Header& h) {
  stats_.keepalives_received++;
  if (h.fin) fin_seq_ = h.seq;
  note_tail(h.seq);
  maybe_complete();
}

// --------------------------------------------------------------------
// Feedback
// --------------------------------------------------------------------

void ModeledReceiver::send_join() {
  join_sent_ = true;
  join_sent_at_ = host_.scheduler().now();
  emit(PacketType::kJoin, baseline_, 0, 0);
}

void ModeledReceiver::send_aggregate(bool solicited) {
  const Seq mn = population_min();
  stats_.agg_updates_sent++;
  trace_.emit(trace::EventKind::kAggUpdate, mn, mn, population_, 0,
              solicited ? trace::kFlagSolicited : 0);
  emit(PacketType::kAggUpdate, mn, population_, 0, solicited);
}

void ModeledReceiver::nak_timer_fire() {
  const sim::SimTime now = host_.scheduler().now();
  const sim::SimTime interval = nak_interval();
  bool repaired = false;
  for (Hole& hole : holes_) {
    if (!hole.shared) {
      // Tail-loss hole: the local repairer has had the bytes since the
      // hole formed; once the local repair round trip elapses, every
      // missing leaf has been served — nothing ever went upstream.
      if (now >= hole.repair_at) {
        stats_.repairs_served++;
        stats_.naks_suppressed += hole.leaves_missing;
        hole.leaves_missing = 0;
        repaired = true;
      }
      continue;
    }
    if (hole.last_nak >= 0 && now - hole.last_nak < interval) continue;
    hole.last_nak = now;
    ++hole.sends;
    // One NAK stands for every leaf missing the range; the rest are
    // what subtree suppression (or a local repairer) would have
    // absorbed, so they are accounted as suppressed.
    stats_.naks_sent++;
    if (hole.leaves_missing > 1) {
      stats_.naks_suppressed += hole.leaves_missing - 1;
    }
    const Seq mn = population_min();
    trace_.emit(trace::EventKind::kNakEmit, hole.begin, hole.end, mn);
    emit(PacketType::kNak, mn, hole.begin,
         static_cast<std::uint32_t>(seq_diff(hole.begin, hole.end)));
  }
  if (repaired) {
    std::erase_if(holes_,
                  [](const Hole& hole) { return hole.leaves_missing == 0; });
    maybe_complete();
  }
  if (!holes_.empty()) {
    nak_timer_.mod_timer_in(
        std::max<kern::Jiffies>(1, kern::to_jiffies(interval)));
  }
}

void ModeledReceiver::update_timer_fire() {
  send_aggregate(/*solicited=*/false);
  update_timer_.mod_timer_in(kUpdatePeriodInit);
}

void ModeledReceiver::emit(PacketType type, Seq seq, std::uint32_t rate,
                           std::uint32_t length, bool urg) {
  if (sender_addr_ == 0) return;
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
  skb->daddr = sender_addr_;
  skb->protocol = kIpProtoHrmc;
  host_.send(std::move(skb));
}

void ModeledReceiver::maybe_complete() {
  if (complete() && !complete_reported_) {
    complete_reported_ = true;
    // Final report so the sender's release gate learns the population
    // is done without waiting out an update period.
    send_aggregate(/*solicited=*/false);
    if (on_complete) on_complete();
  }
}

}  // namespace hrmc::proto
