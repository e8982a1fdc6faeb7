// Deterministic discrete-event scheduler.
//
// This is the engine underneath every experiment in the repository: hosts,
// NICs and routers are all expressed as events scheduled here (the paper
// used CSIM processes; we use an event queue, which gives identical
// modelling power plus cross-platform determinism).
//
// Ordering guarantee: events fire in nondecreasing time, and events with
// equal timestamps fire in the order they were scheduled (FIFO tie-break
// via a monotone sequence number). This makes every run a pure function
// of (scenario, seed).
//
// Storage: callbacks live in a slab of recycled slots, kept in fixed
// 64-slot chunks reached by shift and mask (growth adds a chunk, so
// slots never move), and the priority queue holds 24-byte POD entries
// that reference slots by (index, generation), ordered by a comparator
// object the heap algorithms inline. Cancellation bumps the slot's
// generation — the queue entry becomes a tombstone that is skipped when
// popped, or swept early by lazy compaction once tombstones exceed half
// the queue *and* an absolute floor (so small queues never pay a
// rebuild; sweeps are counted in compactions() for the bench).
// postpone() moves a pending event to a time no earlier than its own
// without touching the heap: the slot takes the new (when, seq) key, and
// the stale entry — never later than that key — is re-keyed when it
// reaches the top. Pop order is exactly that of cancel + schedule_at.
// take_key() hands out the (when, seq) key schedule_at() would give an
// event now, and schedule_keyed() inserts the event under it later: it
// then fires exactly where schedule_at() at key time would have put it.
// A FIFO delay line (the NIC's receive hold) uses the pair to keep one
// pending event, for its head, instead of one per element.
// In steady state schedule_after() allocates nothing: slots
// are reused, the heap vector's capacity is reused, and callbacks whose
// captures fit 64 bytes are stored inline in the slot (larger ones fall
// back to the heap).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace hrmc::sim {

class Scheduler;

/// An event's place in the scheduler's total order: its time, then the
/// sequence number that breaks ties FIFO. Scheduler::take_key() hands
/// one out before the event exists; see Scheduler::schedule_keyed().
struct EventKey {
  SimTime when = 0;
  std::uint64_t seq = 0;
};

namespace detail {

/// Type-erased move-constructed callable with inline storage sized for
/// the simulator's event lambdas (a couple of pointers plus an
/// SkBuffPtr). Unlike std::function it is neither copyable nor movable
/// — it is constructed in a slab slot, invoked there, and destroyed
/// there — which is exactly what lets it skip the allocation
/// std::function would do for captures beyond ~16 bytes.
class EventFn {
 public:
  EventFn() = default;
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      heap_ = new Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { delete static_cast<Fn*>(p); };
    }
  }

  void reset() {
    if (invoke_ == nullptr) return;
    destroy_(target());
    invoke_ = nullptr;
    destroy_ = nullptr;
    heap_ = nullptr;
  }

  void operator()() { invoke_(target()); }

  [[nodiscard]] bool has_value() const { return invoke_ != nullptr; }

 private:
  static constexpr std::size_t kInlineBytes = 64;

  void* target() { return heap_ != nullptr ? heap_ : inline_; }

  alignas(std::max_align_t) unsigned char inline_[kInlineBytes];
  void* heap_ = nullptr;  ///< set when the callable exceeds inline_
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// Scheduler internals shared with EventHandles so a handle outliving
/// its Scheduler degrades to a no-op instead of dangling. One core per
/// *scheduler*, not per event, kept alive by an intrusive refcount
/// (the Scheduler plus every live handle). The count is deliberately
/// non-atomic: a simulation cell is single-threaded by construction —
/// the same invariant the kern::SkBuff block pool relies on — and
/// handles never cross cells, so the atomic RMWs a shared_ptr would
/// issue per handle copy/cancel are pure overhead on this hot path.
struct SchedulerCore {
  struct Slot {
    EventFn fn;
    /// The armed event's key. The heap entry may hold an earlier one,
    /// left behind by postpone(); it is re-keyed when it reaches the top.
    SimTime when = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;  ///< bumped on fire/cancel; stale entries skip
    std::uint32_t next_free = kNoSlot;
    bool armed = false;  ///< an un-fired, un-cancelled queue entry exists
  };

  /// Heap entry: plain data, 24 bytes; the callable stays in its slot.
  struct Entry {
    SimTime when = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal timestamps
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  /// Compaction trigger: tombstones must both outnumber live entries
  /// and reach this floor. Without the floor a tiny queue (2 events,
  /// 1 cancel) would pay a full O(n) rebuild on nearly every cancel;
  /// with it, small queues let pops retire tombstones for free and the
  /// sweep runs only when it reclaims meaningful memory.
  static constexpr std::size_t kCompactMinTombstones = 64;

  /// Slots come in chunks of kChunkSlots, found by shift and mask.
  /// Growth appends a chunk, so a slot never moves; a small chunk keeps
  /// a fresh scheduler's first allocation (8 KiB) small.
  static constexpr unsigned kChunkBits = 6;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

  /// Heap order: std::*_heap keep the greatest element on top, so the
  /// later key plays "less". A function object, not a function pointer,
  /// so push_heap/pop_heap inline it.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::vector<std::unique_ptr<Slot[]>> chunks;
  std::uint32_t slot_count = 0;  ///< slots made so far, all in chunks
  std::uint32_t free_head = kNoSlot;
  std::vector<Entry> heap;  // min-heap by (when, seq) via std::*_heap
  std::size_t tombstones = 0;
  SimTime now = 0;
  std::uint64_t next_seq = 0;
  /// Key of the event that fired last; schedule_keyed() refuses keys
  /// before it.
  EventKey fired;
  std::uint64_t executed = 0;
  std::uint64_t compactions = 0;  ///< lazy sweeps run (wasted-work stat)
  std::uint32_t refs = 1;  ///< owning Scheduler + live EventHandles
  bool dead = false;       ///< the owning Scheduler was destroyed

  Slot& slot(std::uint32_t idx) {
    return chunks[idx >> kChunkBits][idx & (kChunkSlots - 1)];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t idx) const {
    return chunks[idx >> kChunkBits][idx & (kChunkSlots - 1)];
  }

  std::uint32_t acquire_slot();
  void free_slot(std::uint32_t idx);

  [[nodiscard]] bool live(const Entry& e) const {
    const Slot& s = slot(e.slot);
    return s.armed && s.gen == e.gen;
  }

  /// True when an event under `key` can no longer fire in key order:
  /// time has passed key.when, or a later event at that time has fired.
  [[nodiscard]] bool passed(EventKey key) const {
    return key.when < now || (key.when == fired.when && key.seq < fired.seq);
  }

  bool cancel(std::uint32_t slot, std::uint32_t gen);

  /// Moves a pending event to `when`, no earlier than its current time,
  /// under the next seq — the key cancel + schedule_at would give it.
  /// Only the slot changes; see rekey_top().
  bool postpone(std::uint32_t slot_idx, std::uint32_t gen, SimTime when) {
    Slot& s = slot(slot_idx);
    if (!s.armed || s.gen != gen || when < s.when) return false;
    s.when = when;
    s.seq = next_seq++;
    return true;
  }

  /// The top entry is live but postponed since it was pushed (its seq is
  /// not its slot's): push it again under the slot's key. The stale key
  /// is never later than the slot's, so every entry still pops no later
  /// than its true key would, and the true minimum surfaces with a
  /// matching key.
  void rekey_top() {
    std::pop_heap(heap.begin(), heap.end(), Later{});
    const Slot& s = slot(heap.back().slot);
    heap.back().when = s.when;
    heap.back().seq = s.seq;
    std::push_heap(heap.begin(), heap.end(), Later{});
  }

  /// Removes every tombstone from the heap and re-heapifies. O(n);
  /// amortized O(1) per cancel since it only runs after n/2 of them
  /// (and never below kCompactMinTombstones of them).
  void compact();

  /// Time of the earliest live entry (kTimeInfinity when none). Pops
  /// any tombstones sitting on top — the same work step() would do —
  /// so peeking never changes what runs or in what order.
  [[nodiscard]] SimTime next_event_time();
};

inline void core_ref(SchedulerCore* c) {
  if (c != nullptr) ++c->refs;
}

inline void core_unref(SchedulerCore* c) {
  if (c != nullptr && --c->refs == 0) delete c;
}

}  // namespace detail

/// Cancellation handle for a scheduled event. Handles are cheap to copy;
/// cancelling an already-fired or already-cancelled event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other)
      : core_(other.core_), slot_(other.slot_), gen_(other.gen_) {
    detail::core_ref(core_);
  }
  EventHandle(EventHandle&& other) noexcept
      : core_(other.core_), slot_(other.slot_), gen_(other.gen_) {
    other.core_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& other) {
    detail::core_ref(other.core_);
    detail::core_unref(core_);
    core_ = other.core_;
    slot_ = other.slot_;
    gen_ = other.gen_;
    return *this;
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    std::swap(core_, other.core_);
    slot_ = other.slot_;
    gen_ = other.gen_;
    return *this;
  }
  ~EventHandle() { detail::core_unref(core_); }

  /// Prevents the event from firing (and releases its captures
  /// immediately). Safe to call at any time, including after the
  /// scheduler itself is gone.
  void cancel() {
    if (core_ != nullptr && !core_->dead) core_->cancel(slot_, gen_);
  }

  /// True if the event is still queued and will fire.
  [[nodiscard]] bool pending() const {
    return core_ != nullptr && !core_->dead && core_->slot(slot_).armed &&
           core_->slot(slot_).gen == gen_;
  }

 private:
  friend class Scheduler;
  EventHandle(detail::SchedulerCore* core, std::uint32_t slot,
              std::uint32_t gen)
      : core_(core), slot_(slot), gen_(gen) {
    detail::core_ref(core_);
  }

  detail::SchedulerCore* core_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  Scheduler() : core_(new detail::SchedulerCore()) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler() {
    core_->dead = true;  // outstanding handles turn inert
    detail::core_unref(core_);
  }

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return core_->now; }

  /// Schedules `fn` to run at absolute time `when` (must be >= now()).
  /// Accepts any callable; in steady state this allocates nothing (see
  /// file comment).
  template <typename F>
  EventHandle schedule_at(SimTime when, F&& fn) {
    return insert(take_key(when), std::forward<F>(fn));
  }

  /// Takes the key schedule_at(when) would give an event now (`when`
  /// must be >= now()), without scheduling anything. Hand it to
  /// schedule_keyed() later, once.
  EventKey take_key(SimTime when) {
    if (when < core_->now) throw_past(when);
    return {when, core_->next_seq++};
  }

  /// Schedules `fn` under `key`, taken earlier by take_key(): it fires
  /// exactly where schedule_at() at key time would have put it, among
  /// every event scheduled before or since. That needs the insertion to
  /// come before any event with a later key fires — from an event with
  /// an earlier key at the latest. A key already passed throws
  /// std::logic_error.
  template <typename F>
  EventHandle schedule_keyed(EventKey key, F&& fn) {
    if (core_->passed(key)) throw_passed(key);
    return insert(key, std::forward<F>(fn));
  }

  /// Moves the pending event `h` to `when`, which must be no earlier
  /// than its current time; it then fires exactly as if cancelled and
  /// scheduled anew at `when`, but no slot, tombstone or heap push is
  /// spent. Returns false and changes nothing when `h` is not pending
  /// here (fired, cancelled, running, or another scheduler's) or `when`
  /// is earlier: the caller cancels and schedules instead.
  bool postpone(const EventHandle& h, SimTime when) {
    return h.core_ == core_ && core_->postpone(h.slot_, h.gen_, when);
  }

  /// Schedules `fn` to run `delay` after the current time.
  template <typename F>
  EventHandle schedule_after(SimTime delay, F&& fn) {
    return schedule_at(core_->now + delay, std::forward<F>(fn));
  }

  /// Runs events until the queue is empty or `horizon` is passed.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime horizon = kTimeInfinity);

  /// Runs events while `keep_going()` is true (checked between events),
  /// bounded by `horizon`. Returns the number of events executed.
  template <typename Pred>
  std::uint64_t run_while(Pred&& keep_going, SimTime horizon = kTimeInfinity) {
    std::uint64_t n = 0;
    while (keep_going() && step(horizon)) ++n;
    return n;
  }

  /// Executes at most one event. Returns false if the queue was empty or
  /// the next event lies beyond `horizon` (time does not advance then).
  bool step(SimTime horizon = kTimeInfinity);

  /// Number of *live* (non-cancelled) events currently queued.
  [[nodiscard]] std::size_t queued() const {
    return core_->heap.size() - core_->tombstones;
  }

  /// Cancelled entries still occupying the queue, awaiting pop or
  /// compaction. Observability only; they never fire.
  [[nodiscard]] std::size_t tombstones() const { return core_->tombstones; }

  /// Lazy tombstone sweeps run so far — the "wasted work" counter the
  /// bench reports next to events/sec.
  [[nodiscard]] std::uint64_t compactions() const {
    return core_->compactions;
  }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const { return core_->executed; }

  /// Timestamp of the next live event, kTimeInfinity when the queue is
  /// empty. The sharded engine uses this to pick each epoch window.
  [[nodiscard]] SimTime next_event_time() { return core_->next_event_time(); }

 private:
  template <typename F>
  EventHandle insert(EventKey key, F&& fn) {
    detail::SchedulerCore& c = *core_;
    const std::uint32_t idx = c.acquire_slot();
    detail::SchedulerCore::Slot& s = c.slot(idx);
    s.fn.emplace(std::forward<F>(fn));
    s.armed = true;
    s.when = key.when;
    s.seq = key.seq;
    c.heap.push_back({key.when, key.seq, idx, s.gen});
    std::push_heap(c.heap.begin(), c.heap.end(),
                   detail::SchedulerCore::Later{});
    return EventHandle{core_, idx, s.gen};
  }

  [[noreturn]] void throw_past(SimTime when) const;
  [[noreturn]] void throw_passed(EventKey key) const;

  detail::SchedulerCore* core_;
};

}  // namespace hrmc::sim
