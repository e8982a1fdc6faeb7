#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace hrmc::sim {
namespace {

TEST(Scheduler, StartsAtTimeZero) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(milliseconds(30), [&] { order.push_back(3); });
  s.schedule_at(milliseconds(10), [&] { order.push_back(1); });
  s.schedule_at(milliseconds(20), [&] { order.push_back(2); });
  s.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), milliseconds(30));
}

TEST(Scheduler, EqualTimestampsFireFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(milliseconds(5), [&, i] { order.push_back(i); });
  }
  s.run_until();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, ScheduleAfterUsesCurrentTime) {
  Scheduler s;
  SimTime fired = -1;
  s.schedule_at(milliseconds(10), [&] {
    s.schedule_after(milliseconds(5), [&] { fired = s.now(); });
  });
  s.run_until();
  EXPECT_EQ(fired, milliseconds(15));
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler s;
  s.schedule_at(milliseconds(10), [&] {
    EXPECT_THROW(s.schedule_at(milliseconds(5), [] {}), std::logic_error);
  });
  s.run_until();
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.schedule_at(milliseconds(10), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run_until();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelAfterFiringIsNoop) {
  Scheduler s;
  int count = 0;
  EventHandle h = s.schedule_at(milliseconds(10), [&] { ++count; });
  s.run_until();
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash or corrupt anything
  EXPECT_EQ(count, 1);
}

TEST(Scheduler, HorizonStopsExecutionWithoutPassingIt) {
  Scheduler s;
  int count = 0;
  s.schedule_at(milliseconds(10), [&] { ++count; });
  s.schedule_at(milliseconds(30), [&] { ++count; });
  s.run_until(milliseconds(20));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), milliseconds(20));  // idle time passes to horizon
  s.run_until(milliseconds(40));
  EXPECT_EQ(count, 2);
}

TEST(Scheduler, RunWhilePredicateStopsEarly) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(milliseconds(i), [&] { ++count; });
  }
  s.run_while([&] { return count < 4; });
  EXPECT_EQ(count, 4);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) s.schedule_after(microseconds(1), chain);
  };
  s.schedule_at(0, chain);
  s.run_until();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), microseconds(99));
}

TEST(Scheduler, ExecutedCountsOnlyFiredEvents) {
  Scheduler s;
  auto h = s.schedule_at(milliseconds(1), [] {});
  s.schedule_at(milliseconds(2), [] {});
  h.cancel();
  s.run_until();
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, QueuedReportsLiveEventsNotTombstones) {
  Scheduler s;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(s.schedule_at(milliseconds(i + 1), [] {}));
  }
  EXPECT_EQ(s.queued(), 8u);
  EXPECT_EQ(s.tombstones(), 0u);
  // Cancel three: queued() must drop immediately even though the heap
  // entries linger as tombstones until compaction.
  handles[1].cancel();
  handles[3].cancel();
  handles[5].cancel();
  EXPECT_EQ(s.queued(), 5u);
  s.run_until();
  EXPECT_EQ(s.queued(), 0u);
  EXPECT_EQ(s.tombstones(), 0u);
  EXPECT_EQ(s.executed(), 5u);
}

TEST(Scheduler, CancellationHeavyWorkloadCompactsAndStaysOrdered) {
  // Regression test for the slab scheduler: schedule a large batch,
  // cancel most of it, and check that (a) lazy compaction keeps the
  // tombstone count bounded by the live heap size, and (b) the
  // survivors still fire in exact time order.
  Scheduler s;
  constexpr int kEvents = 2000;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < kEvents; ++i) {
    handles.push_back(
        s.schedule_at(milliseconds(i + 1), [&fired, i] { fired.push_back(i); }));
  }
  // Cancel 90% (everything not divisible by 10).
  for (int i = 0; i < kEvents; ++i) {
    if (i % 10 != 0) handles[i].cancel();
  }
  // Lazy compaction invariant: cancelled entries never exceed half the
  // heap, so the heap holds at most 2x the live events.
  EXPECT_EQ(s.queued(), static_cast<std::size_t>(kEvents / 10));
  EXPECT_LE(s.tombstones(), s.queued() + 1);
  s.run_until();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(kEvents / 10));
  for (std::size_t j = 0; j < fired.size(); ++j) {
    EXPECT_EQ(fired[j], static_cast<int>(j) * 10);
  }
  EXPECT_EQ(s.tombstones(), 0u);
}

TEST(Scheduler, SmallQueuesStayBelowTheCompactionFloor) {
  // Tombstones may outnumber live entries in a small queue without
  // triggering a sweep: below kCompactMinTombstones the O(n) rebuild
  // would cost more than letting pops retire them for free.
  Scheduler s;
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  for (int i = 0; i < 50; ++i) {
    handles.push_back(
        s.schedule_at(milliseconds(i + 1), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 50; ++i) {
    if (i % 10 != 0) handles[i].cancel();  // 45 tombstones > 5 live
  }
  EXPECT_EQ(s.compactions(), 0u);
  EXPECT_EQ(s.tombstones(), 45u);
  EXPECT_EQ(s.queued(), 5u);
  s.run_until();
  EXPECT_EQ(s.compactions(), 0u);  // pops retired every tombstone
  EXPECT_EQ(fired, (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(Scheduler, CompactionsStatCountsSweeps) {
  // Above the floor the majority trigger still applies, and each sweep
  // is visible in compactions() (the bench's wasted-work counter).
  Scheduler s;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 400; ++i) {
    handles.push_back(s.schedule_at(milliseconds(i + 1), [] {}));
  }
  for (int i = 0; i < 400; ++i) {
    if (i % 4 != 0) handles[i].cancel();  // 300 cancels, 100 live
  }
  EXPECT_GE(s.compactions(), 1u);
  EXPECT_LE(s.tombstones(), s.queued() + 1);
  const std::uint64_t sweeps = s.compactions();
  s.run_until();
  EXPECT_EQ(s.executed(), 100u);
  EXPECT_EQ(s.compactions(), sweeps);  // draining never re-heapifies
}

TEST(Scheduler, NextEventTimePeeksWithoutRunning) {
  Scheduler s;
  EXPECT_EQ(s.next_event_time(), kTimeInfinity);
  auto early = s.schedule_at(milliseconds(5), [] {});
  s.schedule_at(milliseconds(9), [] {});
  EXPECT_EQ(s.next_event_time(), milliseconds(5));
  EXPECT_EQ(s.executed(), 0u);  // peeking runs nothing
  // Cancelling the head must expose the next live entry, popping the
  // tombstone exactly as step() would have.
  early.cancel();
  EXPECT_EQ(s.next_event_time(), milliseconds(9));
  s.run_until();
  EXPECT_EQ(s.next_event_time(), kTimeInfinity);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, FifoTieBreakSurvivesSlotReuse) {
  // Slots freed by cancellation are recycled by later schedules. The
  // FIFO tie-break at equal timestamps must follow scheduling order
  // (the monotone sequence number), not slot index or slab layout.
  Scheduler s;
  std::vector<int> order;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 5; ++i) {
    doomed.push_back(s.schedule_at(milliseconds(10), [] {}));
  }
  s.schedule_at(milliseconds(10), [&] { order.push_back(0); });
  for (auto& h : doomed) h.cancel();  // frees low-index slots
  for (int i = 1; i <= 5; ++i) {
    // These reuse the freed slots (LIFO free list -> descending slot
    // indices) yet must fire after the survivor above and in this order.
    s.schedule_at(milliseconds(10), [&, i] { order.push_back(i); });
  }
  s.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Scheduler, CancelInsideCallbackOfSameTimestampBatch) {
  // An event may cancel a later event that shares its timestamp; the
  // tombstone is then popped (and skipped) in the same drain pass.
  Scheduler s;
  std::vector<int> order;
  EventHandle victim;
  s.schedule_at(milliseconds(1), [&] {
    order.push_back(1);
    victim.cancel();
  });
  victim = s.schedule_at(milliseconds(1), [&] { order.push_back(2); });
  s.schedule_at(milliseconds(1), [&] { order.push_back(3); });
  s.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Scheduler, LargeCapturesUseHeapFallbackIntact) {
  // EventFn stores callables up to 64 bytes inline; bigger captures go
  // through the heap fallback. Both paths must run and destroy cleanly.
  Scheduler s;
  std::array<std::uint64_t, 16> big{};  // 128 bytes, forces heap path
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i * 3 + 1;
  std::uint64_t sum = 0;
  s.schedule_at(milliseconds(1), [big, &sum] {
    for (std::uint64_t v : big) sum += v;
  });
  s.run_until();
  std::uint64_t want = 0;
  for (std::size_t i = 0; i < big.size(); ++i) want += i * 3 + 1;
  EXPECT_EQ(sum, want);
}

TEST(Scheduler, PostponeFiresExactlyAsCancelAndReschedule) {
  // Two schedulers run one seeded script of schedule, cancel, postpone
  // and step. `moved` postpones in place; `rearmed` cancels and
  // schedules anew instead. Postpones go later, to the same time, and
  // earlier (refused by both). Times are coarse so ties are common and
  // the FIFO tie-break is exercised.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng(seed);
    Scheduler moved, rearmed;
    std::vector<std::pair<int, SimTime>> fired_moved, fired_rearmed;
    std::vector<EventHandle> h_moved, h_rearmed;
    std::vector<SimTime> at;  // each id's current time
    int refused = 0, accepted = 0;
    auto arm = [](Scheduler& s, std::vector<std::pair<int, SimTime>>& log,
                  int id, SimTime when) {
      return s.schedule_at(when, [&s, &log, id] {
        log.emplace_back(id, s.now());
      });
    };
    for (int op = 0; op < 4000; ++op) {
      const double pick = rng.next_double();
      if (pick < 0.3 || at.empty()) {
        const SimTime when = moved.now() + microseconds(rng.uniform_int(0, 8));
        const int id = static_cast<int>(at.size());
        h_moved.push_back(arm(moved, fired_moved, id, when));
        h_rearmed.push_back(arm(rearmed, fired_rearmed, id, when));
        at.push_back(when);
      } else if (pick < 0.4) {
        const auto id = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(at.size()) - 1));
        h_moved[id].cancel();
        h_rearmed[id].cancel();
      } else if (pick < 0.8) {
        const auto id = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(at.size()) - 1));
        const SimTime when = at[id] + microseconds(rng.uniform_int(-3, 6));
        const bool want = h_rearmed[id].pending() && when >= at[id];
        ASSERT_EQ(moved.postpone(h_moved[id], when), want);
        if (want) {
          h_rearmed[id].cancel();
          h_rearmed[id] =
              arm(rearmed, fired_rearmed, static_cast<int>(id), when);
          at[id] = when;
          ++accepted;
        } else {
          ++refused;
        }
      } else {
        ASSERT_EQ(moved.next_event_time(), rearmed.next_event_time());
        ASSERT_EQ(moved.queued(), rearmed.queued());
        ASSERT_EQ(moved.step(), rearmed.step());
      }
    }
    moved.run_until();
    rearmed.run_until();
    EXPECT_GT(accepted, 100);
    EXPECT_GT(refused, 100);
    EXPECT_EQ(fired_moved, fired_rearmed);
    EXPECT_EQ(moved.executed(), rearmed.executed());
  }
}

TEST(Scheduler, KeyedInsertionFiresAsScheduleAtKeyTime) {
  // Two schedulers run one seeded script of schedule, cancel, postpone
  // and step. `direct` schedules every event when the script makes it;
  // `keyed` takes only the key for about half of them and inserts the
  // event later: at a random op, or at the latest just before a step
  // could pass its key. Coarse times make ties common, and cancels
  // free slots for reuse.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    Rng rng(seed);
    Scheduler direct, keyed;
    std::vector<std::pair<int, SimTime>> fired_direct, fired_keyed;
    std::vector<EventHandle> h_direct, h_keyed;
    std::vector<std::optional<EventKey>> deferred;  // key not inserted yet
    std::vector<SimTime> at;                         // each id's time
    int inserted_late = 0, postponed = 0;
    auto log_to = [](Scheduler& s, std::vector<std::pair<int, SimTime>>& log,
                     int id) {
      return [&s, &log, id] { log.emplace_back(id, s.now()); };
    };
    auto insert = [&](std::size_t id) {
      h_keyed[id] = keyed.schedule_keyed(
          *deferred[id], log_to(keyed, fired_keyed, static_cast<int>(id)));
      deferred[id].reset();
      ++inserted_late;
    };
    auto insert_due = [&](SimTime until) {
      for (std::size_t id = 0; id < deferred.size(); ++id) {
        if (deferred[id] && deferred[id]->when <= until) insert(id);
      }
    };
    auto random_id = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(at.size()) - 1));
    };
    for (int op = 0; op < 4000; ++op) {
      const double pick = rng.next_double();
      if (pick < 0.3 || at.empty()) {
        const SimTime when = direct.now() + microseconds(rng.uniform_int(0, 8));
        const int id = static_cast<int>(at.size());
        h_direct.push_back(
            direct.schedule_at(when, log_to(direct, fired_direct, id)));
        if (rng.chance(0.5)) {
          h_keyed.emplace_back();
          deferred.push_back(keyed.take_key(when));
        } else {
          h_keyed.push_back(
              keyed.schedule_at(when, log_to(keyed, fired_keyed, id)));
          deferred.emplace_back();
        }
        at.push_back(when);
      } else if (pick < 0.4) {
        const std::size_t id = random_id();
        h_direct[id].cancel();
        h_keyed[id].cancel();
        deferred[id].reset();  // a key never inserted never fires
      } else if (pick < 0.7) {
        const std::size_t id = random_id();
        const SimTime when = at[id] + microseconds(rng.uniform_int(-3, 6));
        const bool want = h_direct[id].pending() && when >= at[id];
        ASSERT_EQ(direct.postpone(h_direct[id], when), want);
        if (deferred[id]) {
          // Not in the queue yet: a postpone is a fresh key, as cancel +
          // schedule_at would be.
          if (want) deferred[id] = keyed.take_key(when);
        } else {
          ASSERT_EQ(keyed.postpone(h_keyed[id], when), want);
        }
        if (want) {
          at[id] = when;
          ++postponed;
        }
      } else if (pick < 0.8) {
        const std::size_t id = random_id();
        if (deferred[id]) insert(id);
      } else {
        insert_due(keyed.next_event_time());
        ASSERT_EQ(direct.next_event_time(), keyed.next_event_time());
        ASSERT_EQ(direct.step(), keyed.step());
      }
    }
    insert_due(kTimeInfinity);
    direct.run_until();
    keyed.run_until();
    EXPECT_GT(inserted_late, 100);
    EXPECT_GT(postponed, 100);
    EXPECT_EQ(fired_direct, fired_keyed);
    EXPECT_EQ(direct.executed(), keyed.executed());
  }
}

TEST(Scheduler, KeysForThePastOrAlreadyPassedThrow) {
  Scheduler s;
  const EventKey first = s.take_key(milliseconds(5));
  const EventKey second = s.take_key(milliseconds(5));
  const EventKey late = s.take_key(milliseconds(8));
  std::vector<int> order;
  s.schedule_keyed(second, [&] { order.push_back(2); });
  s.run_until(milliseconds(5));
  // The later of two keys at 5 ms has fired, so the earlier one could
  // no longer fire in key order.
  EXPECT_THROW(s.schedule_keyed(first, [] {}), std::logic_error);
  EXPECT_THROW(s.take_key(milliseconds(4)), std::logic_error);
  s.run_until(milliseconds(9));  // idle time passes 8 ms
  EXPECT_THROW(s.schedule_keyed(late, [] {}), std::logic_error);
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, PostponedPastTheHorizonStaysPending) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.schedule_at(milliseconds(5), [&] { ran = true; });
  ASSERT_TRUE(s.postpone(h, milliseconds(20)));
  // step() meets the stale 5 ms entry, re-keys it and stops at the
  // horizon.
  s.run_until(milliseconds(10));
  EXPECT_FALSE(ran);
  EXPECT_TRUE(h.pending());
  EXPECT_EQ(s.now(), milliseconds(10));
  EXPECT_EQ(s.next_event_time(), milliseconds(20));
  // A peek re-keys too: it never reports the stale 20 ms.
  ASSERT_TRUE(s.postpone(h, milliseconds(30)));
  EXPECT_EQ(s.next_event_time(), milliseconds(30));
  s.run_until();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), milliseconds(30));
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, PostponeFromOwnCallbackIsRefused) {
  Scheduler s;
  EventHandle self;
  bool refused = false;
  self = s.schedule_at(milliseconds(1), [&] {
    refused = !s.postpone(self, milliseconds(2));
  });
  s.run_until();
  EXPECT_TRUE(refused);
  EXPECT_EQ(s.executed(), 1u);
}

TEST(Scheduler, CancelAfterPostponeCancels) {
  Scheduler s;
  bool ran = false;
  EventHandle h = s.schedule_at(milliseconds(1), [&] { ran = true; });
  ASSERT_TRUE(s.postpone(h, milliseconds(3)));
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_EQ(s.queued(), 0u);
  EXPECT_FALSE(s.postpone(h, milliseconds(4)));  // nothing left to move
  EXPECT_FALSE(s.postpone(EventHandle{}, milliseconds(4)));
  s.run_until();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(Scheduler, HandleOutlivingSchedulerIsInert) {
  EventHandle h;
  {
    Scheduler s;
    h = s.schedule_at(milliseconds(1), [] {});
    EXPECT_TRUE(h.pending());
  }
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash: core is gone, weak_ptr lock fails
}

TEST(SimTime, ConversionsRoundTrip) {
  EXPECT_EQ(seconds(2), 2 * kSecond);
  EXPECT_EQ(milliseconds(1500), from_seconds(1.5));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(250)), 250.0);
}

TEST(SimTime, TransmissionTimeRoundsUp) {
  // 1250 bytes at 10 Mbps = exactly 1 ms; the +1 ns guard keeps
  // back-to-back packets strictly ordered.
  const SimTime t = transmission_time(1250, 10e6);
  EXPECT_GE(t, milliseconds(1));
  EXPECT_LE(t, milliseconds(1) + 2);
}

TEST(SimTime, FormatTimePicksUnits) {
  EXPECT_EQ(format_time(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_time(microseconds(5)), "5.000us");
  EXPECT_EQ(format_time(milliseconds(5)), "5.000ms");
  EXPECT_EQ(format_time(seconds(5)), "5.000000s");
  EXPECT_EQ(format_time(kTimeInfinity), "+inf");
}

}  // namespace
}  // namespace hrmc::sim
