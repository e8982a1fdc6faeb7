#include "sim/shard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "kern/skbuff.hpp"

namespace hrmc::sim {
namespace {

// Per-domain execution logs: each domain appends only its own entries
// while the engine runs (the same single-writer discipline real
// components follow), so logging itself cannot race or perturb order.
using Log = std::vector<std::pair<SimTime, int>>;

struct PingWorld {
  explicit PingWorld(std::size_t domains, SimTime lookahead)
      : engine(domains, lookahead), logs(domains) {}

  /// Executes in domain `d`: log, do some local-only chatter, and if
  /// hops remain bounce a token to the next domain one lookahead out
  /// (the earliest legal cross-domain arrival).
  void hop(std::size_t d, int token, int hops_left) {
    Scheduler& sched = engine.domain(d);
    logs[d].emplace_back(sched.now(), token * 100 + hops_left);
    sched.schedule_after(engine.lookahead() / 4, [this, d, token] {
      logs[d].emplace_back(engine.domain(d).now(), token * 100 + 99);
    });
    if (hops_left == 0) return;
    const std::size_t nd = (d + 1) % engine.domain_count();
    engine.post(d, nd, sched.now() + engine.lookahead(), 64,
                [this, nd, token, hops_left] {
                  hop(nd, token, hops_left - 1);
                });
  }

  ShardEngine engine;
  std::vector<Log> logs;
};

struct PingOutcome {
  std::vector<Log> logs;
  std::uint64_t events = 0;
  ShardEngine::Stats stats;
};

PingOutcome run_ping(std::size_t domains, unsigned threads, int tokens,
                     int hops) {
  PingWorld w(domains, microseconds(50));
  for (int t = 0; t < tokens; ++t) {
    const std::size_t d = static_cast<std::size_t>(t) % domains;
    w.engine.domain(d).schedule_at(microseconds(t + 1), [&w, d, t, hops] {
      w.hop(d, t, hops);
    });
  }
  PingOutcome out;
  out.events = w.engine.run({}, kTimeInfinity, threads);
  out.logs = std::move(w.logs);
  out.stats = w.engine.stats();
  return out;
}

TEST(ShardEngine, RejectsEmptyOrZeroLookahead) {
  EXPECT_THROW(ShardEngine(0, microseconds(1)), std::invalid_argument);
  EXPECT_THROW(ShardEngine(2, 0), std::invalid_argument);
  EXPECT_THROW(ShardEngine(2, -5), std::invalid_argument);
}

TEST(ShardEngine, BitIdenticalAcrossThreadCounts) {
  // The tentpole invariant: per-domain event order, event counts, and
  // epoch structure are a pure function of the scenario — the worker
  // count must be unobservable.
  const PingOutcome serial = run_ping(4, 1, 8, 25);
  for (unsigned threads : {2u, 4u, 8u}) {
    const PingOutcome parallel = run_ping(4, threads, 8, 25);
    EXPECT_EQ(parallel.logs, serial.logs) << threads << " threads";
    EXPECT_EQ(parallel.events, serial.events);
    EXPECT_EQ(parallel.stats.epochs, serial.stats.epochs);
    EXPECT_EQ(parallel.stats.handoffs, serial.stats.handoffs);
    EXPECT_EQ(parallel.stats.handoff_bytes, serial.stats.handoff_bytes);
  }
  // 8 tokens x 25 hops cross a boundary once each.
  EXPECT_EQ(serial.stats.handoffs, 8u * 25u);
  EXPECT_EQ(serial.stats.handoff_bytes, 8u * 25u * 64u);
}

TEST(ShardEngine, EpochsSkipIdleGaps) {
  // Two event clusters a full second apart with a 50us lookahead: a
  // naive fixed-step engine would grind through ~20k windows; epochs
  // must instead jump to the next event anywhere.
  PingWorld w(2, microseconds(50));
  w.engine.domain(0).schedule_at(microseconds(1), [&w] { w.hop(0, 1, 2); });
  w.engine.domain(1).schedule_at(seconds(1), [&w] { w.hop(1, 2, 2); });
  w.engine.run({}, kTimeInfinity, 2);
  EXPECT_LT(w.engine.stats().epochs, 20u);
  EXPECT_EQ(w.engine.stats().handoffs, 4u);
}

TEST(ShardEngine, LookaheadViolationThrows) {
  // A post arriving inside the current window would break conservative
  // causality; the engine must refuse loudly, not corrupt the order.
  ShardEngine eng(2, microseconds(50));
  eng.domain(0).schedule_at(microseconds(10), [&eng] {
    eng.post(0, 1, eng.domain(0).now(), 10, [] {});  // zero latency: illegal
  });
  EXPECT_THROW(eng.run({}, kTimeInfinity, 2), std::logic_error);
}

TEST(ShardEngine, WorkerExceptionIsRethrownAfterJoin) {
  // Domain 1 is homed on worker 1 at 2 and at 4 threads. Domain 0's
  // event at the same instant holds the calling thread (worker 0) until
  // domain 1 has thrown, so the throw surfaces on a pool thread. run()
  // must rethrow it on the caller's thread, join the pool (an unjoined
  // std::thread would end the process) and leave its run state.
  for (unsigned threads : {2u, 4u}) {
    ShardEngine eng(4, microseconds(50));
    for (std::size_t d = 0; d < 4; ++d) {
      for (int k = 1; k <= 100; ++k) {
        eng.domain(d).schedule_at(microseconds(10 * k), [] {});
      }
    }
    std::atomic<bool> thrown{false};
    std::thread::id thrower;
    eng.domain(1).schedule_at(microseconds(505), [&thrown, &thrower] {
      thrower = std::this_thread::get_id();
      thrown.store(true, std::memory_order_release);
      throw std::logic_error("domain 1 failed");
    });
    eng.domain(0).schedule_at(microseconds(505), [&thrown] {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!thrown.load(std::memory_order_acquire) &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
    });
    EXPECT_THROW(eng.run({}, kTimeInfinity, threads), std::logic_error)
        << threads << " threads";
    EXPECT_NE(thrower, std::this_thread::get_id()) << threads << " threads";
    int ran = 0;
    eng.post_control(0, [&ran] { ran = 1; });
    EXPECT_EQ(ran, 1) << "post_control after the throw must apply inline";
  }
}

// Nine domains ticking once per lookahead, except domain 0, which ticks
// 100 times per lookahead; each light tick (and every 100th busy one)
// hands a hop to the next domain. Domain 0 thus runs about 50x the
// events of any other domain per epoch, so its home worker is still
// busy when the others run out of home domains and steal.
struct SkewWorld {
  static constexpr std::size_t kDomains = 9;
  static constexpr SimTime kLookahead = microseconds(50);
  static constexpr SimTime kEnd = milliseconds(10);

  SkewWorld() : engine(kDomains, kLookahead), logs(kDomains),
                off_home(kDomains, 0) {}

  /// Logs `id` in domain `d` and counts a run away from the domain's
  /// home worker: worker 0 is the calling thread.
  void note(std::size_t d, int id) {
    logs[d].emplace_back(engine.domain(d).now(), id);
    const bool on_caller = std::this_thread::get_id() == caller;
    if (on_caller != (d % workers == 0)) ++off_home[d];
  }

  void tick(std::size_t d, int n) {
    note(d, 2 * n);
    Scheduler& sched = engine.domain(d);
    const int per_hop = d == 0 ? 100 : 1;
    if (n % per_hop == 0) {
      const std::size_t nd = (d + 1) % kDomains;
      engine.post(d, nd, sched.now() + kLookahead, 64,
                  [this, nd, n] { note(nd, 2 * n + 1); });
    }
    const SimTime step = kLookahead / per_hop;
    if (sched.now() + step < kEnd) {
      sched.schedule_after(step, [this, d, n] { tick(d, n + 1); });
    }
  }

  ShardEngine engine;
  std::vector<Log> logs;
  std::vector<int> off_home;
  std::thread::id caller = std::this_thread::get_id();
  unsigned workers = 1;
};

TEST(ShardEngine, StolenDomainsRunOnceAndBitIdentical) {
  const auto run = [](unsigned threads, SkewWorld& w) {
    w.workers = threads;
    for (std::size_t d = 0; d < SkewWorld::kDomains; ++d) {
      w.engine.domain(d).schedule_at(microseconds(1 + d),
                                     [&w, d] { w.tick(d, 0); });
    }
    return w.engine.run({}, kTimeInfinity, threads);
  };
  SkewWorld serial;
  const std::uint64_t serial_events = run(1, serial);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SkewWorld w;
    const std::uint64_t events = run(threads, w);
    EXPECT_EQ(w.logs, serial.logs) << threads << " threads";
    EXPECT_EQ(events, serial_events) << threads << " threads";
    EXPECT_EQ(w.engine.stats().epochs, serial.engine.stats().epochs)
        << threads << " threads";
    // No event ran twice: each domain logs every id once, and the
    // logs hold exactly the executed events.
    std::size_t logged = 0;
    for (Log log : w.logs) {
      logged += log.size();
      std::ranges::sort(log, {}, &Log::value_type::second);
      EXPECT_TRUE(std::ranges::adjacent_find(log, {},
                                             &Log::value_type::second) ==
                  log.end())
          << threads << " threads";
    }
    EXPECT_EQ(logged, events) << threads << " threads";
    // With two workers every steal moves a domain to or from the
    // calling thread, so at least one shows here.
    if (threads == 2) {
      EXPECT_GT(std::accumulate(w.off_home.begin(), w.off_home.end(), 0),
                0);
    }
  }
  EXPECT_GT(serial.engine.stats().epochs, 150u);
  EXPECT_GT(serial.logs[0].size(), 40 * serial.logs[1].size());
}

TEST(ShardEngine, SetupPostsRunWithoutBarriers) {
  // Outside run() there is no window to violate: post() schedules
  // directly (single-threaded setup), post_control() applies inline.
  ShardEngine eng(2, microseconds(50));
  int ran = 0;
  eng.post(0, 1, microseconds(5), 32, [&ran] { ran += 1; });
  eng.post_control(1, [&ran] { ran += 10; });
  EXPECT_EQ(ran, 10);  // control applied immediately
  eng.run({}, kTimeInfinity, 1);
  EXPECT_EQ(ran, 11);
  EXPECT_EQ(eng.domain(1).executed(), 1u);
  EXPECT_GE(eng.domain(1).now(), microseconds(5));  // clock reached the event
}

TEST(ShardEngine, ControlPostsApplyInSourceOrderAtTheBarrier) {
  // Controls staged in the same window apply serially at its end:
  // source-domain ascending, FIFO within a source — regardless of
  // which worker ran which domain first.
  for (unsigned threads : {1u, 3u}) {
    ShardEngine eng(3, microseconds(50));
    std::vector<int> applied;
    for (std::size_t d : {2u, 1u, 0u}) {
      eng.domain(d).schedule_at(microseconds(1), [&eng, &applied, d] {
        eng.post_control(d, [&applied, d] {
          applied.push_back(static_cast<int>(d));
        });
        eng.post_control(d, [&applied, d] {
          applied.push_back(static_cast<int>(d) + 10);
        });
      });
    }
    eng.run({}, kTimeInfinity, threads);
    EXPECT_EQ(applied, (std::vector<int>{0, 10, 1, 11, 2, 12}))
        << threads << " threads";
    EXPECT_EQ(eng.stats().control_posts, 6u);
  }
}

TEST(ShardEngine, DonePredicateStopsAtABarrier) {
  // done() is sampled between windows only; a run stops at the first
  // barrier where it holds, leaving later events unexecuted.
  ShardEngine eng(2, microseconds(50));
  bool flag = false;
  int late = 0;
  eng.domain(0).schedule_at(microseconds(1), [&flag] { flag = true; });
  eng.domain(1).schedule_at(seconds(5), [&late] { late = 1; });
  eng.run([&flag] { return flag; }, kTimeInfinity, 2);
  EXPECT_EQ(late, 0);
  EXPECT_TRUE(eng.domain(1).next_event_time() < kTimeInfinity);
}

TEST(ShardEngine, HorizonBoundsEveryDomain) {
  // Events beyond the horizon stay queued; domain clocks advance to
  // the horizon like Scheduler::run_until's contract.
  ShardEngine eng(2, microseconds(50));
  int ran = 0;
  eng.domain(0).schedule_at(milliseconds(1), [&ran] { ++ran; });
  eng.domain(1).schedule_at(milliseconds(100), [&ran] { ++ran; });
  eng.run({}, milliseconds(10), 2);
  EXPECT_EQ(ran, 1);
}

TEST(ShardEngine, ExecutedSumsDomains) {
  ShardEngine eng(3, microseconds(50));
  for (std::size_t d = 0; d < 3; ++d) {
    eng.domain(d).schedule_at(microseconds(1 + d), [] {});
  }
  eng.run({}, kTimeInfinity, 1);
  EXPECT_EQ(eng.executed(), 3u);
}

TEST(ShardEngine, UndeliveredHandoffFreesItsPacket) {
  // Domain 0 posts a packet to domain 1 in the epoch where domain 2
  // throws, so the barrier never moves it into domain 1. The staged
  // callable owns the packet, so destroying the engine frees it. One
  // thread: the pool gauges are this thread's.
  const std::uint64_t live_before = kern::skbuff_stats().live_bytes;
  bool delivered = false;
  {
    ShardEngine eng(3, microseconds(50));
    eng.domain(0).schedule_at(microseconds(10), [&eng, &delivered] {
      kern::SkBuffPtr skb = kern::SkBuff::alloc(1000);
      skb->put(1000);
      const std::size_t bytes = skb->wire_size();
      eng.post(0, 1, eng.domain(0).now() + eng.lookahead(), bytes,
               [&delivered, skb = std::move(skb)] { delivered = true; });
    });
    eng.domain(2).schedule_at(microseconds(10), [] {
      throw std::runtime_error("domain 2 failed");
    });
    EXPECT_THROW(eng.run({}, kTimeInfinity, 1), std::runtime_error);
    EXPECT_GT(kern::skbuff_stats().live_bytes, live_before);
  }
  EXPECT_FALSE(delivered);
  EXPECT_EQ(kern::skbuff_stats().live_bytes, live_before);
}

}  // namespace
}  // namespace hrmc::sim
