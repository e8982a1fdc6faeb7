#include "kern/timer.hpp"

#include <gtest/gtest.h>

#include "kern/jiffies.hpp"
#include "sim/scheduler.hpp"

namespace hrmc::kern {
namespace {

TEST(Jiffies, ConversionAndRounding) {
  EXPECT_EQ(kJiffy, sim::milliseconds(10));
  EXPECT_EQ(to_jiffies(sim::milliseconds(25)), 2);
  EXPECT_EQ(from_jiffies(3), sim::milliseconds(30));
  EXPECT_EQ(ceil_to_jiffy(sim::milliseconds(25)), sim::milliseconds(30));
  EXPECT_EQ(ceil_to_jiffy(sim::milliseconds(30)), sim::milliseconds(30));
  EXPECT_EQ(ceil_to_jiffy(0), 0);
}

TEST(TimerList, FiresOnJiffyBoundary) {
  sim::Scheduler sched;
  sim::SimTime fired = -1;
  TimerList t(sched, [&] { fired = sched.now(); });
  t.mod_timer_in(5);
  sched.run_until();
  EXPECT_EQ(fired, from_jiffies(5));
}

TEST(TimerList, ModTimerRearms) {
  sim::Scheduler sched;
  int count = 0;
  TimerList t(sched, [&] { ++count; });
  t.mod_timer_in(2);
  t.mod_timer_in(4);  // supersedes the first arming
  sched.run_until();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), from_jiffies(4));
}

TEST(TimerList, RearmToThePendingJiffyFiresOnceWithoutTombstones) {
  sim::Scheduler sched;
  int count = 0;
  TimerList t(sched, [&] { ++count; });
  t.mod_timer_in(3);
  t.mod_timer_in(3);  // same expiry: postponed in place, no cancel
  t.mod_timer_in(3);
  EXPECT_EQ(sched.tombstones(), 0u);
  EXPECT_EQ(sched.queued(), 1u);
  sched.run_until();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sched.now(), from_jiffies(3));
  EXPECT_EQ(sched.tombstones(), 0u);
}

TEST(TimerList, DelTimerCancels) {
  sim::Scheduler sched;
  int count = 0;
  TimerList t(sched, [&] { ++count; });
  t.mod_timer_in(3);
  EXPECT_TRUE(t.pending());
  t.del_timer();
  EXPECT_FALSE(t.pending());
  sched.run_until();
  EXPECT_EQ(count, 0);
}

TEST(TimerList, ExpiredTargetFiresNextTick) {
  sim::Scheduler sched;
  sched.schedule_at(from_jiffies(10), [] {});
  sched.run_until();
  sim::SimTime fired = -1;
  TimerList t(sched, [&] { fired = sched.now(); });
  t.mod_timer(5);  // expiry in the past
  sched.run_until();
  EXPECT_GT(fired, from_jiffies(10));
  EXPECT_LE(fired, from_jiffies(11));
}

TEST(TimerList, RearmFromWithinCallback) {
  sim::Scheduler sched;
  int count = 0;
  TimerList t(sched, [&] {
    if (++count < 5) t.mod_timer_in(1);
  });
  t.mod_timer_in(1);
  sched.run_until();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sched.now(), from_jiffies(5));
}

TEST(TimerList, DestructorCancels) {
  sim::Scheduler sched;
  int count = 0;
  {
    TimerList t(sched, [&] { ++count; });
    t.mod_timer_in(1);
  }
  sched.run_until();
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace hrmc::kern
