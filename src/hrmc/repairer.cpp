#include "hrmc/repairer.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "hrmc/receiver.hpp"
#include "trace/trace.hpp"

namespace hrmc::proto {

using kern::Seq;
using kern::seq_before;
using kern::seq_before_eq;
using kern::seq_diff;
using kern::seq_max;
using kern::seq_min;

RepairAgent::RepairAgent(HrmcReceiver& owner)
    : owner_(owner),
      flush_timer_(owner.host_.scheduler(), [this] { flush_timer_fire(); }) {}

// --------------------------------------------------------------------
// Child membership
// --------------------------------------------------------------------

void RepairAgent::touch_child(net::Addr from, Seq seq, std::uint32_t mult,
                              sim::SimTime now) {
  auto [it, inserted] = children_.try_emplace(from);
  Child& c = it->second;
  if (inserted || c.next_expected != seq ||
      (mult > 0 && c.multiplicity != mult)) {
    mark_dirty();
  }
  c.next_expected = seq;
  if (mult > 0) c.multiplicity = mult;
  c.last_heard = now;
}

void RepairAgent::expire_children(sim::SimTime now) {
  if (owner_.cfg_.eviction_policy == EvictionPolicy::kStall) return;
  for (auto it = children_.begin(); it != children_.end();) {
    if (now - it->second.last_heard > kMemberTimeout) {
      it = children_.erase(it);
    } else {
      ++it;
    }
  }
}

void RepairAgent::handle_join(const Header& h, net::Addr from) {
  const sim::SimTime now = owner_.host_.scheduler().now();
  // URG marks a crash-restart resync: anchor the child at our own
  // position (mirroring the sender's JOIN handling) so its stale
  // pre-crash rcv_nxt never re-enters the aggregate. A normal JOIN is
  // clamped into [initial_seq, our position]: claiming bytes we have
  // not seen ourselves would let a bogus far-future anchor hide the
  // child from the subtree minimum.
  //
  // Like the sender, the URG handshake must be *idempotent*: a retried
  // resync JOIN (first response lost or still crossing a slow subtree
  // link) must earn the SAME anchor, or the child could adopt the
  // first response while our entry — and through the aggregate, the
  // sender's release gate — sails ahead on a re-anchor from the retry.
  const auto it = children_.find(from);
  const Seq anchor =
      h.urg ? (it != children_.end() ? it->second.next_expected
                                     : owner_.rcv_nxt_)
            : seq_min(seq_max(h.seq, owner_.cfg_.initial_seq),
                      owner_.rcv_nxt_);
  // Register the child at the granted anchor *now*, before the
  // response is even on the wire: the anchor is bounded by our own
  // rcv_nxt_, and our subtree-min report is what gates the sender's
  // release — so from this instant the release head can never pass the
  // anchor, and the child cannot be orphaned while the response (or
  // its first report) is still in flight. A half-open handshake
  // (response lost, child fails over to the sender) does not freeze
  // the aggregate: the failed-over child mirrors its periodic UPDATEs
  // to us (send_update), so the entry keeps advancing with its true
  // position.
  touch_child(from, anchor, 0, now);
  owner_.emit_to(from, PacketType::kJoinResponse, anchor, 0, 0, h.urg);
}

void RepairAgent::handle_leave(const Header& h, net::Addr from) {
  if (children_.erase(from) > 0) mark_dirty();
  owner_.emit_to(from, PacketType::kLeaveResponse, h.seq, 0, 0);
}

void RepairAgent::handle_update(const Header& h, net::Addr from,
                                bool aggregated) {
  const sim::SimTime now = owner_.host_.scheduler().now();
  // AGG_UPDATE from a nested repairer: rate carries its subtree weight,
  // so this child stands in for that many leaves. A plain UPDATE is one
  // leaf. Unknown children are adopted — after our own crash-restart
  // the table is empty and the children's periodic reports rebuild it.
  const std::uint32_t mult =
      aggregated ? std::max<std::uint32_t>(h.rate, 1) : 1;
  touch_child(from, h.seq, aggregated ? mult : 0, now);
}

void RepairAgent::handle_control(const Header& h, net::Addr from) {
  const sim::SimTime now = owner_.host_.scheduler().now();
  touch_child(from, h.seq, 0, now);
  // A child's rate request is about the shared multicast stream, so it
  // must reach the sender — forward it as our own. Urgent stops always
  // go; routine warnings are coalesced to one per jiffy so a congested
  // subtree does not turn into a control-packet storm upstream.
  if (!h.urg && last_control_forward_ >= 0 &&
      now - last_control_forward_ < kern::kJiffy) {
    return;
  }
  last_control_forward_ = now;
  owner_.send_control(h.rate, h.urg);
}

// --------------------------------------------------------------------
// Local repair
// --------------------------------------------------------------------

void RepairAgent::cache_data(const Header& h, const kern::SkBuffPtr& skb) {
  if (h.length == 0) return;
  const Seq begin = h.seq;
  // Arrival ~= sequence order: a new packet almost always sorts after
  // the newest cached one, so the duplicate check is O(1) in the common
  // case; a retransmission that sorts earlier gets a bounded backward
  // scan (missing a rare duplicate only wastes one cache slot).
  if (!cache_.empty() && !kern::seq_after(begin, cache_.back().begin)) {
    for (auto it = cache_.rbegin(); it != cache_.rend(); ++it) {
      if (it->begin == begin) return;
      if (seq_before(it->begin, begin)) break;
    }
  }
  // Fallible allocation (DESIGN.md §16): an uncached packet only means
  // a child NAK for it forwards upstream — the pre-repairer path.
  if (!owner_.mem_charge(kern::MemComponent::kRepairCache, h.length)) {
    return;
  }
  cache_.push_back(
      CacheEntry{begin, begin + h.length, h.fin, skb->clone()});
  while (cache_.size() > kRepairCachePackets) {
    evict_front(/*traced=*/false);
  }
  // Budget squeeze: the ledger itself may sit over the effective line
  // even though this charge fit under the full budget — shed LRU
  // entries until the owner's ledger is back under (or the cache is
  // empty and other components must give instead).
  if (kern::MemLedger* mem = owner_.host_.mem_ledger()) {
    while (mem->overage(kern::kMemEvictHeadroomBytes) > 0 && !cache_.empty()) {
      evict_front(/*traced=*/true);
    }
  }
}

void RepairAgent::evict_front(bool traced) {
  const CacheEntry& e = cache_.front();
  const auto len = static_cast<std::size_t>(seq_diff(e.begin, e.end));
  owner_.mem_uncharge(kern::MemComponent::kRepairCache, len);
  if (traced) {
    owner_.stats_.repair_cache_evictions++;
    const kern::MemLedger* mem = owner_.host_.mem_ledger();
    owner_.trace_.emit(
        trace::EventKind::kCacheEvict, e.begin, e.end,
        mem != nullptr ? mem->live() : 0,
        static_cast<std::uint32_t>(kern::MemComponent::kRepairCache));
  }
  cache_.pop_front();
}

void RepairAgent::send_repair(net::Addr child, const CacheEntry& e) {
  // Re-frame the cached payload as a retransmitted DATA packet. The
  // clone shares the data block; push()/write_header() copy-on-write
  // only the header area.
  kern::SkBuffPtr out = e.payload->clone();
  Header dh;
  dh.sport = owner_.group_.port;
  dh.dport = owner_.group_.port;
  dh.seq = e.begin;
  dh.rate = owner_.last_adv_rate_;
  dh.length = static_cast<std::uint32_t>(out->size());
  dh.tries = 2;
  dh.type = PacketType::kData;
  dh.fin = e.fin;
  write_header(*out, dh);
  out->daddr = child;
  out->protocol = kIpProtoHrmc;
  owner_.stats_.repairs_served++;
  owner_.trace_.emit(trace::EventKind::kRepairTx, e.begin, e.end, child);
  owner_.host_.send(std::move(out));
}

void RepairAgent::handle_nak(const Header& h, net::Addr from) {
  const sim::SimTime now = owner_.host_.scheduler().now();
  // NAK seq = the child's next_expected: a membership refresh exactly
  // like at the sender.
  touch_child(from, h.seq, 0, now);
  if (h.length == 0) return;
  const Seq want_from = h.rate;
  const Seq want_to = h.rate + h.length;
  if (!seq_before(want_from, want_to)) return;

  // Serve every cached packet overlapping the range, then forward the
  // uncovered remainder upstream as our own NAK.
  std::vector<std::pair<Seq, Seq>> covered;
  for (const CacheEntry& e : cache_) {
    if (seq_before_eq(e.end, want_from) || seq_before_eq(want_to, e.begin)) {
      continue;
    }
    send_repair(from, e);
    covered.emplace_back(e.begin, e.end);
  }
  std::sort(covered.begin(), covered.end(),
            [](const auto& a, const auto& b) {
              return seq_before(a.first, b.first);
            });
  Seq cursor = want_from;
  for (const auto& [b, e] : covered) {
    if (seq_before(cursor, b)) owner_.forward_child_nak(cursor, b);
    cursor = seq_max(cursor, e);
  }
  if (seq_before(cursor, want_to)) {
    owner_.forward_child_nak(cursor, want_to);
  }
}

// --------------------------------------------------------------------
// Aggregation
// --------------------------------------------------------------------

Seq RepairAgent::subtree_min(Seq own) const {
  Seq mn = own;
  for (const auto& [addr, c] : children_) {
    (void)addr;
    mn = seq_min(mn, c.next_expected);
  }
  return mn;
}

std::uint64_t RepairAgent::subtree_weight() const {
  std::uint64_t w = 1;  // the repairer itself
  for (const auto& [addr, c] : children_) {
    (void)addr;
    w += c.multiplicity;
  }
  return w;
}

void RepairAgent::send_aggregate(bool solicited) {
  expire_children(owner_.host_.scheduler().now());
  const Seq mn = subtree_min(owner_.rcv_nxt_);
  const std::uint64_t w = subtree_weight();
  owner_.stats_.agg_updates_sent++;
  owner_.trace_.emit(trace::EventKind::kAggUpdate, mn, mn, w, 0,
                     solicited ? trace::kFlagSolicited : 0);
  // AGG_UPDATE: seq = subtree minimum, rate = represented member count
  // (wire.hpp). URG marks a probe-solicited answer.
  owner_.emit(PacketType::kAggUpdate, mn,
              static_cast<std::uint32_t>(
                  std::min<std::uint64_t>(w, 0xffffffffULL)),
              0, solicited);
  dirty_ = false;
}

void RepairAgent::mark_dirty() {
  if (dirty_) return;
  dirty_ = true;
  flush_timer_.mod_timer_in(1);
}

void RepairAgent::flush_timer_fire() {
  if (!dirty_ || owner_.crashed_ || owner_.resync_pending_) return;
  send_aggregate(/*solicited=*/false);
}

void RepairAgent::clear() {
  children_.clear();
  for (const CacheEntry& e : cache_) {
    owner_.mem_uncharge(kern::MemComponent::kRepairCache,
                        static_cast<std::size_t>(seq_diff(e.begin, e.end)));
  }
  cache_.clear();
  dirty_ = false;
  last_control_forward_ = -1;
  flush_timer_.del_timer();
}

void RepairAgent::stop() { flush_timer_.del_timer(); }

}  // namespace hrmc::proto
