// Conservative parallel discrete-event engine: several Schedulers (one
// per *domain*) advanced in lockstep epochs.
//
// The model is classic conservative PDES (YAWNS-style windows): if every
// cross-domain effect generated at time t arrives at its destination no
// earlier than t + L — L is the *lookahead*, here the service time of
// the smallest packet on the slowest cross-domain trunk — then all
// events in the window [E, E + L) are causally independent across
// domains and may run concurrently. At the window's end every domain
// stops at a barrier, staged cross-domain handoffs are spliced into
// their destination queues, and the next window starts at the earliest
// event anywhere (windows skip idle gaps, so an epoch is only as short
// as the traffic makes it).
//
// Each domain has a home worker, d % W of W workers (the coordinator is
// worker 0). In every epoch a worker first runs its own active domains
// in index order, then claims any active domain no worker has started,
// so a slow or late worker's domains still finish in the same epoch.
// Keeping a domain on one worker keeps its slots, NICs, hosts and
// scheduler chunks in that core's cache. When each domain went to
// whichever worker took the next value of one shared counter, 10-17% of
// the domain runs in a 2-thread pass over perfbench `million` seed 1
// found the domain last run on the other core, and the two workers
// spent 214-263 and 301-359 ns per event against 170-184 ns at 1
// thread. With home workers 2.5% do, and the workers spend 177-190 and
// 208-259 ns (three passes each, 4-core host, GCC 12.2, Release+LTO).
//
// Determinism is by construction, at any thread count:
//  - Within a domain, its Scheduler's (when, seq) order is untouched;
//    which OS thread runs the domain never matters because domains
//    share no mutable state inside a window.
//  - Handoffs are staged per (src, dst) pair by the one thread that
//    owns src that epoch (lock-free), and spliced at the barrier in a
//    fixed order (src ascending, first-touch dst order, FIFO within a
//    pair), so destination sequence numbers are reproducible.
//  - Control posts (multicast grafts — zero-latency cross-domain state
//    changes) are deferred to the barrier and applied serially in the
//    same fixed order, quantizing them to the epoch boundary.
//
// Consequently a run at 8 threads is bit-identical — same event order
// per domain, same PRNG draws, same trace records — to the same run at
// 1 thread. "Serial" for comparison purposes *is* the 1-thread
// execution of this engine; a run on one plain Scheduler remains
// byte-for-byte what it was before this engine existed (it differs from
// the sharded schedule only in how same-timestamp events in *different*
// domains interleave, which no protocol invariant observes).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace hrmc::sim {

class ShardEngine {
 public:
  struct Stats {
    std::uint64_t epochs = 0;         ///< barrier windows executed
    std::uint64_t handoffs = 0;       ///< cross-domain packet posts
    std::uint64_t handoff_bytes = 0;  ///< wire bytes those posts carried
    std::uint64_t control_posts = 0;  ///< boundary-applied control ops
  };

  /// `lookahead` must be positive: it is the guaranteed minimum latency
  /// of every cross-domain effect, and the epoch window width.
  ShardEngine(std::size_t domains, SimTime lookahead);
  ~ShardEngine();

  ShardEngine(const ShardEngine&) = delete;
  ShardEngine& operator=(const ShardEngine&) = delete;

  [[nodiscard]] std::size_t domain_count() const { return domains_.size(); }
  [[nodiscard]] Scheduler& domain(std::size_t d) { return *domains_[d]; }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  /// Stages `fn` to run in domain `dst` at absolute time `when`. Called
  /// from domain `src`'s events (its owning thread this epoch); spliced
  /// into dst's queue at the next barrier. `when` must honor the
  /// lookahead — at least the current window's end — or the engine
  /// throws: a violation means the topology's cross-domain latency
  /// bound is wrong, and silently accepting it would corrupt causality.
  /// Outside run() (setup/teardown, single-threaded) it schedules
  /// directly.
  void post(std::size_t src, std::size_t dst, SimTime when,
            std::size_t wire_bytes, std::function<void()> fn);

  /// Stages `fn` to run serially at the next epoch barrier — for
  /// cross-domain state changes with no modeled latency (IGMP-style
  /// grafts). Applied in (src ascending, FIFO) order. Outside run() it
  /// executes immediately.
  void post_control(std::size_t src, std::function<void()> fn);

  /// Runs all domains until no events remain anywhere, `done()` holds
  /// at a barrier, or every next event lies beyond `horizon`. `done`
  /// may be empty. `threads` >= 1 is the worker count (clamped to the
  /// domain count); the result is identical for every value. Returns
  /// the number of events executed by this call.
  std::uint64_t run(const std::function<bool()>& done, SimTime horizon,
                    unsigned threads);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Events executed, summed over domains.
  [[nodiscard]] std::uint64_t executed() const;
  /// Tombstone sweeps, summed over domains.
  [[nodiscard]] std::uint64_t compactions() const;

 private:
  struct Handoff {
    SimTime when = 0;
    std::uint32_t bytes = 0;
    std::function<void()> fn;
  };

  void flush_mailboxes();
  void apply_controls();
  /// Runs `worker`'s home domains in `active_`, then steals the ones no
  /// worker has claimed yet. Stealing costs the stolen domain's cache
  /// locality but keeps an epoch from waiting on one worker: with home
  /// domains only, the first epoch of every run waits for the new
  /// threads to start.
  void run_claimed(SimTime until, std::size_t worker, std::size_t workers);
  void worker_loop(std::size_t worker, std::size_t workers);

  std::vector<std::unique_ptr<Scheduler>> domains_;
  SimTime lookahead_;

  // Mailboxes: staged_[src * D + dst] is appended only by src's owner
  // thread during an epoch and drained only at the barrier; dirty_[src]
  // lists the dst indexes src touched, in first-touch order, so the
  // flush walks exactly the non-empty pairs.
  std::vector<std::vector<Handoff>> staged_;
  std::vector<std::vector<std::size_t>> dirty_;
  std::vector<std::vector<std::function<void()>>> controls_;

  Stats stats_;
  bool running_ = false;
  SimTime window_end_ = 0;  ///< current epoch's end (posts must be >= this)

  // Epoch barrier: the coordinator bumps epoch_ to release workers and
  // waits for arrived_. A worker runs domain d only after flipping
  // claimed_[d] from false, which the serial phase resets for every
  // active domain. All worker visibility (active_, window_end_, the
  // resets) is ordered by the epoch_ release/acquire pair.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<unsigned> arrived_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::atomic<bool>> claimed_;
  std::vector<SimTime> next_at_;  ///< per domain, read once per barrier
  std::vector<std::uint32_t> active_;
  std::vector<std::exception_ptr> worker_errors_;
};

}  // namespace hrmc::sim
