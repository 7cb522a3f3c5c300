// Unit tests for the discrete-event engine.
#include <gtest/gtest.h>

#include <vector>

#include "sim/engine.h"

namespace zapc::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30u);
}

TEST(Engine, SameTimeIsFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule(10, [&, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  EventId id = e.schedule(10, [&] { ran = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilAdvancesClock) {
  Engine e;
  int count = 0;
  e.schedule(10, [&] { ++count; });
  e.schedule(100, [&] { ++count; });
  e.run_until(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(e.now(), 50u);
  e.run_until(200);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(e.now(), 200u);
}

TEST(Engine, NestedScheduling) {
  Engine e;
  std::vector<Time> times;
  e.schedule(10, [&] {
    times.push_back(e.now());
    e.schedule(5, [&] { times.push_back(e.now()); });
  });
  e.run();
  EXPECT_EQ(times, (std::vector<Time>{10, 15}));
}

TEST(Engine, ScheduleAtPastClampsToNow) {
  Engine e;
  e.schedule(100, [] {});
  e.run();
  Time fired = 0;
  e.schedule_at(5, [&] { fired = e.now(); });
  e.run();
  EXPECT_EQ(fired, 100u);
}

TEST(Engine, PendingCountExcludesCancelled) {
  Engine e;
  EventId a = e.schedule(10, [] {});
  e.schedule(20, [] {});
  EXPECT_EQ(e.pending(), 2u);
  e.cancel(a);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(e.idle());
}

TEST(Engine, MaxEventsBoundsRun) {
  Engine e;
  int count = 0;
  // Self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++count;
    e.schedule(1, tick);
  };
  e.schedule(1, tick);
  u64 executed = e.run(100);
  EXPECT_EQ(executed, 100u);
  EXPECT_EQ(count, 100);
}

TEST(Engine, StaleIdCannotCancelSlotReuser) {
  Engine e;
  EventId first = e.schedule(10, [] {});
  ASSERT_TRUE(e.cancel(first));
  // The freed slot goes to the next event, under a new id.
  bool ran = false;
  EventId second = e.schedule(10, [&] { ran = true; });
  EXPECT_NE(second, first);
  EXPECT_NE(second, 0u);
  EXPECT_FALSE(e.cancel(first));
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_TRUE(ran);
  // Likewise once an event has run and its slot is reused.
  EventId third = e.schedule(5, [] {});
  EXPECT_FALSE(e.cancel(second));
  EXPECT_TRUE(e.cancel(third));
}

TEST(Engine, RunningEventCannotCancelItself) {
  Engine e;
  EventId self = 0;
  bool cancelled = true;
  self = e.schedule(10, [&] { cancelled = e.cancel(self); });
  e.run();
  EXPECT_FALSE(cancelled);
}

TEST(Engine, SameTimeStaysFifoAcrossSlotReuse) {
  Engine e;
  std::vector<int> order;
  // Free slots in an order unlike the scheduling order, then refill them.
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(e.schedule(10, [] {}));
  e.cancel(ids[2]);
  e.cancel(ids[0]);
  e.cancel(ids[3]);
  for (int i = 0; i < 5; ++i) {
    e.schedule(10, [&, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace zapc::sim
