// Tests for the discrete-event simulator.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sim/simulator.h"

namespace lazyctrl::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SimulatorTest, EqualTimestampsFireInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  SimTime inner_fired = -1;
  s.schedule_at(100, [&] {
    s.schedule_after(50, [&] { inner_fired = s.now(); });
  });
  s.run();
  EXPECT_EQ(inner_fired, 150);
}

TEST(SimulatorTest, PastDeadlinesClampToNow) {
  Simulator s;
  s.schedule_at(100, [&] {
    s.schedule_at(10, [&] { EXPECT_EQ(s.now(), 100); });
  });
  s.run();
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.schedule_at(10, [&] { fired = true; });
  s.cancel(id);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsNoop) {
  Simulator s;
  const EventId id = s.schedule_at(1, [] {});
  s.run();
  s.cancel(id);  // must not crash or corrupt
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(SimulatorTest, PeriodicFiresRepeatedly) {
  Simulator s;
  int fires = 0;
  s.schedule_periodic(10, [&] { ++fires; });
  s.run_until(55);
  EXPECT_EQ(fires, 5);  // t = 10,20,30,40,50
  EXPECT_EQ(s.now(), 55);
}

TEST(SimulatorTest, PeriodicCancelStopsSeries) {
  Simulator s;
  int fires = 0;
  const EventId id = s.schedule_periodic(10, [&] { ++fires; });
  s.schedule_at(35, [&] { s.cancel(id); });
  s.run_until(100);
  EXPECT_EQ(fires, 3);
}

TEST(SimulatorTest, PeriodicCanCancelItself) {
  Simulator s;
  int fires = 0;
  EventId id = 0;
  id = s.schedule_periodic(10, [&] {
    if (++fires == 2) s.cancel(id);
  });
  s.run_until(100);
  EXPECT_EQ(fires, 2);
}

TEST(SimulatorTest, CursorChainStepsOneEventAtATime) {
  Simulator s;
  std::vector<std::pair<std::size_t, SimTime>> seen;
  const SimTime times[] = {5, 20, 21, 40};
  schedule_cursor_chain(
      s, times[0],
      [&](std::size_t i) -> std::optional<std::pair<std::size_t, SimTime>> {
        seen.push_back({i, s.now()});
        // Exactly one pending chain event at a time.
        EXPECT_LE(s.pending_events(), 1u);
        if (i + 1 >= 4) return std::nullopt;
        return {{i + 1, times[i + 1]}};
      });
  s.run();
  ASSERT_EQ(seen.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seen[i].first, i);
    EXPECT_EQ(seen[i].second, times[i]);
  }
}

TEST(SimulatorTest, CursorChainEndsWhenDeadlineCutsIt) {
  // A chain cut short by run_until leaves a pending link but must not
  // keep the simulator from finishing; destroying the simulator reclaims
  // the stored continuation (the chain holds no strong self-reference).
  Simulator s;
  int steps = 0;
  schedule_cursor_chain(
      s, 0,
      [&](std::size_t i) -> std::optional<std::pair<std::size_t, SimTime>> {
        ++steps;
        return {{i + 1, s.now() + 100}};
      });
  s.run_until(250);  // fires links at t=0, 100, 200; link at 300 pends
  EXPECT_EQ(steps, 3);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.run_until(1234);
  EXPECT_EQ(s.now(), 1234);
}

TEST(SimulatorTest, RunUntilDoesNotExecuteLaterEvents) {
  Simulator s;
  bool fired = false;
  s.schedule_at(100, [&] { fired = true; });
  s.run_until(99);
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_until(100);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator s;
  int fires = 0;
  s.schedule_at(1, [&] { ++fires; });
  s.schedule_at(2, [&] { ++fires; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(fires, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(fires, 2);
}

TEST(SimulatorTest, ProcessedEventsCounts) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.schedule_at(i, [] {});
  s.run();
  EXPECT_EQ(s.processed_events(), 7u);
}

TEST(SimulatorTest, EventsScheduledDuringRunAreExecuted) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 5);
}

TEST(SimulatorTest, NextEventTimeEmptyQueue) {
  Simulator s;
  EXPECT_EQ(s.next_event_time(), Simulator::kNoPendingEvent);
}

TEST(SimulatorTest, NextEventTimeReportsEarliestPending) {
  Simulator s;
  s.schedule_at(30, [] {});
  s.schedule_at(10, [] {});
  EXPECT_EQ(s.next_event_time(), 10);
  s.step();
  EXPECT_EQ(s.next_event_time(), 30);
}

TEST(SimulatorTest, NextEventTimeSkipsCancelledEvents) {
  Simulator s;
  const EventId early = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  s.cancel(early);
  EXPECT_EQ(s.next_event_time(), 20);
  EXPECT_EQ(s.pending_events(), 1u);
}

// --- EventFn (small-buffer-optimized event callback) ---

TEST(EventFnTest, InvokesInlineAndMoves) {
  int hits = 0;
  EventFn f([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hits, 1);
  EventFn g = std::move(f);
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  g();
  EXPECT_EQ(hits, 2);
}

TEST(EventFnTest, AcceptsMoveOnlyCaptures) {
  // std::function required copyable callables; the simulator's callback
  // type must not — arena handles and unique_ptrs ride in captures.
  auto owned = std::make_unique<int>(41);
  int got = 0;
  EventFn f([p = std::move(owned), &got] { got = *p + 1; });
  f();
  EXPECT_EQ(got, 42);
}

TEST(EventFnTest, OversizedCapturesFallBackToHeap) {
  // Captures beyond the inline buffer still work (heap fallback keeps
  // full generality); the destructor must run exactly once.
  struct Big {
    std::array<std::uint64_t, 32> payload{};  // 256 B > kInlineBytes
    std::shared_ptr<int> live;
  };
  Big big;
  big.payload[7] = 99;
  big.live = std::make_shared<int>(0);
  std::weak_ptr<int> watch = big.live;
  std::uint64_t seen = 0;
  {
    EventFn f([big = std::move(big), &seen] { seen = big.payload[7]; });
    static_assert(sizeof(Big) > EventFn::kInlineBytes);
    f();
    EXPECT_EQ(seen, 99u);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());  // destroyed with the EventFn
}

TEST(EventFnTest, ScheduledEventsRunThroughEventFn) {
  // End-to-end through the simulator: a scheduled move-only callback
  // fires once and periodic callbacks survive repeated invocation.
  Simulator s;
  auto token = std::make_unique<int>(5);
  int total = 0;
  s.schedule_at(10, [t = std::move(token), &total] { total += *t; });
  int periodic_runs = 0;
  const EventId p = s.schedule_periodic(7, [&periodic_runs] {
    ++periodic_runs;
  });
  s.run_until(24);
  s.cancel(p);
  EXPECT_EQ(total, 5);
  EXPECT_EQ(periodic_runs, 3);  // t = 7, 14, 21
}

}  // namespace
}  // namespace lazyctrl::sim
