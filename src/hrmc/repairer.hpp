// Designated local repairer (million-receiver scaling extension).
//
// One receiver per router subtree is promoted to answer its siblings'
// feedback locally: child NAKs are served out of a bounded cache of
// recently received DATA payloads (O(1) copy-on-write clones), child
// UPDATEs are folded into a single AGG_UPDATE — (subtree minimum
// next_expected, represented member count) — toward the sender, and
// only ranges the cache cannot cover are forwarded upward. The sender
// then holds one membership record per subtree instead of one per leaf,
// its release check is O(subtrees), and the feedback volume crossing
// the backbone is O(subtrees) rather than O(receivers).
//
// Correctness hinges on one rule, enforced by the owning receiver's
// report_position(): everything a repairer reports upward carries the
// subtree *minimum*, never its own position — the sender's record for
// the repairer stands in for every leaf beneath it.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "hrmc/config.hpp"
#include "hrmc/wire.hpp"
#include "kern/skbuff.hpp"
#include "kern/timer.hpp"
#include "net/host.hpp"

namespace hrmc::proto {

class HrmcReceiver;

class RepairAgent {
 public:
  explicit RepairAgent(HrmcReceiver& owner);

  // Child feedback, unicast to the repairer's address (routed here by
  // the owner's rx dispatch).
  void handle_join(const Header& h, net::Addr from);
  void handle_leave(const Header& h, net::Addr from);
  void handle_update(const Header& h, net::Addr from, bool aggregated);
  void handle_control(const Header& h, net::Addr from);
  void handle_nak(const Header& h, net::Addr from);

  /// Data path: every multicast DATA packet the owner receives is
  /// cached so child NAKs can be answered without a sender round trip.
  void cache_data(const Header& h, const kern::SkBuffPtr& skb);

  /// Subtree minimum: the owner's own position folded with every
  /// registered child's last report.
  [[nodiscard]] kern::Seq subtree_min(kern::Seq own) const;
  /// Leaves represented: 1 for the repairer itself plus each child's
  /// multiplicity (a nested repairer child counts its whole subtree).
  [[nodiscard]] std::uint64_t subtree_weight() const;

  /// Emits one AGG_UPDATE (subtree min, weight) toward the sender.
  void send_aggregate(bool solicited);

  /// Owner crash: children, cache, and the flush timer are volatile
  /// (children re-register through their own recovery paths).
  void clear();
  /// Owner teardown: stop the flush timer, keep state.
  void stop();

  [[nodiscard]] std::size_t child_count() const { return children_.size(); }

 private:
  struct Child {
    kern::Seq next_expected = 0;
    std::uint32_t multiplicity = 1;
    sim::SimTime last_heard = 0;
  };
  struct CacheEntry {
    kern::Seq begin = 0;
    kern::Seq end = 0;
    bool fin = false;
    kern::SkBuffPtr payload;  // payload bytes only (header stripped)
  };

  /// Records a child report. mult == 0 keeps the existing multiplicity.
  void touch_child(net::Addr from, kern::Seq seq, std::uint32_t mult,
                   sim::SimTime now);
  /// Drops silent children — but never under kStall, where a silent
  /// member must hold the subtree minimum exactly as it would hold the
  /// sender's window (the paper's stall semantics, one level down).
  void expire_children(sim::SimTime now);
  /// Drops the oldest cache entry (LRU front), returning its bytes to
  /// the owner's memory ledger. `traced` marks memory-pressure
  /// evictions (kCacheEvict + stat); packet-cap pops stay silent, as
  /// they always were.
  void evict_front(bool traced);
  void send_repair(net::Addr child, const CacheEntry& e);
  /// Coalescing: child reports mark the aggregate dirty; at most one
  /// unsolicited AGG_UPDATE per jiffy goes upstream.
  void mark_dirty();
  void flush_timer_fire();

  HrmcReceiver& owner_;
  std::unordered_map<net::Addr, Child> children_;
  std::deque<CacheEntry> cache_;
  kern::TimerList flush_timer_;
  bool dirty_ = false;
  /// Rate-limit for forwarded (non-urgent) child rate requests.
  sim::SimTime last_control_forward_ = -1;
};

}  // namespace hrmc::proto
