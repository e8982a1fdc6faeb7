// timer_list analogue.
//
// The H-RMC driver hangs four of these off every socket (transmit,
// retransmit, update, keepalive — Figure 7 of the paper). Semantics match
// the kernel API: a timer holds an expiry in jiffies and a callback;
// add_timer arms it, mod_timer rearms it, del_timer disarms it; expiry is
// quantized to jiffy boundaries.
//
// Most re-arms push a pending timer's expiry out (or leave it where it
// is), so mod_timer first tries sim::Scheduler::postpone: the event keeps
// its slot and heap entry and takes the next seq, exactly the order a
// cancel + re-arm gives. Only an earlier expiry, or a timer that is not
// pending (fired, deleted, or running its own callback), pays the cancel
// and a fresh event. Linux's shortcut — a re-arm to the pending expiry
// is a no-op — is not taken: it would keep the old seq and reorder
// timers that share a jiffy.
#pragma once

#include <functional>
#include <utility>

#include "kern/jiffies.hpp"
#include "sim/scheduler.hpp"

namespace hrmc::kern {

class TimerList {
 public:
  TimerList(sim::Scheduler& sched, std::function<void()> fn)
      : sched_(&sched), fn_(std::move(fn)) {}

  ~TimerList() { del_timer(); }
  TimerList(const TimerList&) = delete;
  TimerList& operator=(const TimerList&) = delete;

  /// Arms the timer to fire at absolute jiffy `expires`. If the timer was
  /// already pending it is rearmed (mod_timer semantics).
  void mod_timer(Jiffies expires) {
    const sim::SimTime when = from_jiffies(expires);
    const sim::SimTime at = when <= sched_->now()
                                ? ceil_to_jiffy(sched_->now() + 1)
                                : ceil_to_jiffy(when);
    if (sched_->postpone(handle_, at)) return;
    del_timer();
    handle_ = sched_->schedule_at(at, [this] { fn_(); });
  }

  /// Arms the timer `delta` jiffies from now.
  void mod_timer_in(Jiffies delta) {
    mod_timer(to_jiffies(sched_->now()) + delta);
  }

  /// Disarms the timer if pending.
  void del_timer() { handle_.cancel(); }

  [[nodiscard]] bool pending() const { return handle_.pending(); }

  [[nodiscard]] Jiffies now_jiffies() const {
    return to_jiffies(sched_->now());
  }

 private:
  sim::Scheduler* sched_;
  std::function<void()> fn_;
  sim::EventHandle handle_;
};

}  // namespace hrmc::kern
