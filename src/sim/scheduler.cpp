#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>

namespace hrmc::sim {

namespace detail {

std::uint32_t SchedulerCore::acquire_slot() {
  if (free_head != kNoSlot) {
    const std::uint32_t idx = free_head;
    Slot& s = slot(idx);
    free_head = s.next;
    s.next = kNoSlot;
    return idx;
  }
  if ((slot_count & (kChunkSlots - 1)) == 0) {
    // Default-initialized: value-initialization would also zero each
    // chunk, and that alone cost `million`'s set-up about 10%.
    chunks.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
  }
  return slot_count++;
}

void SchedulerCore::free_slot(std::uint32_t idx) {
  slot(idx).next = free_head;
  free_head = idx;
}

bool SchedulerCore::cancel(std::uint32_t slot_idx, std::uint32_t gen) {
  Slot& s = slot(slot_idx);
  if (!s.armed || s.gen != gen) return false;
  const bool had_entry = unchain(slot_idx);  // a chained one has none
  s.armed = false;
  ++s.gen;       // invalidates the queue entry and any copied handles
  s.fn.reset();  // release captured resources (packets, refs) now
  free_slot(slot_idx);
  if (!had_entry) return true;
  ++tombstones;
  // Lazy sweep: once cancelled entries outnumber live events, chained
  // ones included, the heap is mostly dead weight — rebuild it without
  // them. Amortized O(1) per cancel; pop order is unchanged because
  // (when, seq) totally orders live entries regardless of heap layout.
  // The count floor keeps tiny queues from paying a rebuild per cancel:
  // below it, pops retire the tombstones for free.
  if (tombstones >= kCompactMinTombstones &&
      tombstones * 2 > heap.size() + linked) {
    compact();
  }
  return true;
}

void SchedulerCore::compact() {
  heap.erase(std::remove_if(heap.begin(), heap.end(),
                            [this](const Entry& e) { return !live(e); }),
             heap.end());
  std::make_heap(heap.begin(), heap.end(), Later{});
  tombstones = 0;
  ++compactions;
}

SimTime SchedulerCore::next_event_time() {
  while (!heap.empty()) {
    const Entry& top = heap.front();
    if (live(top)) {
      if (top.seq == slot(top.slot).seq) return top.when;
      rekey_top();  // postponed: never report it early
      continue;
    }
    std::pop_heap(heap.begin(), heap.end(), Later{});
    heap.pop_back();
    assert(tombstones > 0);
    --tombstones;
  }
  return kTimeInfinity;
}

}  // namespace detail

void Scheduler::throw_past(SimTime when) const {
  throw std::logic_error("Scheduler::schedule_at: time " + format_time(when) +
                         " is in the past (now " + format_time(core_->now) +
                         ")");
}

void Scheduler::throw_passed(EventKey key) const {
  throw std::logic_error(
      "Scheduler::schedule_keyed: key (" + format_time(key.when) + ", " +
      std::to_string(key.seq) + ") is already passed (now " +
      format_time(core_->now) + ")");
}

bool Scheduler::step(SimTime horizon) {
  detail::SchedulerCore& c = *core_;
  while (!c.heap.empty()) {
    const detail::SchedulerCore::Entry top = c.heap.front();
    if (top.when > horizon) return false;
    if (!c.live(top)) {  // cancelled tombstone
      std::pop_heap(c.heap.begin(), c.heap.end(),
                    detail::SchedulerCore::Later{});
      c.heap.pop_back();
      assert(c.tombstones > 0);
      --c.tombstones;
      continue;
    }
    detail::SchedulerCore::Slot& s = c.slot(top.slot);
    // A seq names one key assignment, so a differing seq means the
    // event was postponed after this entry was pushed.
    if (top.seq != s.seq) {
      c.rekey_top();
      continue;
    }
    if (s.next != detail::kNoSlot) {
      // The chain's next member inherits the entry: its key is the next
      // in heap order, so the heap needs no sift.
      detail::SchedulerCore::Slot& n = c.slot(s.next);
      n.prev = detail::kNoSlot;
      c.heap.front() = {n.when, n.seq, s.next, n.gen};
      --c.linked;
    } else {
      std::pop_heap(c.heap.begin(), c.heap.end(),
                    detail::SchedulerCore::Later{});
      c.heap.pop_back();
    }
    assert(top.when >= c.now);
    c.now = top.when;
    c.fired = {top.when, top.seq};
    // Retire the slot *before* invoking: a cancel() from inside the
    // callback (or on a stale handle) sees a bumped generation and
    // no-ops; the slot is kept off the free list until the callback —
    // which may itself schedule events — has finished running out of it.
    s.armed = false;
    ++s.gen;
    ++c.executed;
    s.fn();
    s.fn.reset();
    c.free_slot(top.slot);
    return true;
  }
  return false;
}

std::uint64_t Scheduler::run_until(SimTime horizon) {
  std::uint64_t n = 0;
  while (step(horizon)) ++n;
  if (horizon != kTimeInfinity && core_->now < horizon) {
    // Anything left in the queue lies beyond the horizon; idle time
    // passes up to it.
    core_->now = horizon;
  }
  return n;
}

}  // namespace hrmc::sim
