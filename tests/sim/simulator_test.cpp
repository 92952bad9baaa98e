#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace geored::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), 0.0);
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_FALSE(simulator.step());
}

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.schedule_at(30.0, [&] { order.push_back(3); });
  simulator.schedule_at(10.0, [&] { order.push_back(1); });
  simulator.schedule_at(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(simulator.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.now(), 30.0);
}

TEST(Simulator, SimultaneousEventsRunFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  simulator.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator simulator;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) simulator.schedule_after(10.0, chain);
  };
  simulator.schedule_at(0.0, chain);
  simulator.run();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(simulator.now(), 40.0);
}

TEST(Simulator, ClockIsEventTimeDuringExecution) {
  Simulator simulator;
  double observed = -1.0;
  simulator.schedule_at(12.5, [&] { observed = simulator.now(); });
  simulator.run();
  EXPECT_EQ(observed, 12.5);
}

TEST(Simulator, RunUntilAdvancesClockAndLeavesLaterEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(10.0, [&] { ++fired; });
  simulator.schedule_at(50.0, [&] { ++fired; });
  EXPECT_EQ(simulator.run_until(30.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), 30.0);
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilBoundaryIsInclusive) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(30.0, [&] { ++fired; });
  simulator.run_until(30.0);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule_at(1.0, [&] {
    ++fired;
    simulator.stop();
  });
  simulator.schedule_at(2.0, [&] { ++fired; });
  simulator.run();
  EXPECT_EQ(fired, 1);
  // A later run resumes with the remaining events.
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RejectsSchedulingInThePast) {
  Simulator simulator;
  simulator.schedule_at(10.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(simulator.schedule_after(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(simulator.run_until(5.0), std::invalid_argument);
  EXPECT_THROW(simulator.schedule_at(20.0, nullptr), std::invalid_argument);
}

/// True when `fn` throws std::invalid_argument whose message contains `text`.
template <typename Fn>
bool rejects_with(Fn&& fn, const std::string& text) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return std::string(e.what()).find(text) != std::string::npos;
  }
  return false;
}

TEST(Simulator, RejectsNonFiniteTimesWithTheirOwnMessage) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Simulator simulator;
  simulator.schedule_at(10.0, [] {});
  simulator.run();
  for (const double t : {kInf, -kInf, nan}) {
    EXPECT_TRUE(rejects_with([&] { simulator.schedule_at(t, [] {}); }, "must be finite")) << t;
    EXPECT_TRUE(rejects_with([&] { simulator.schedule_after(t, [] {}); }, "must be finite"))
        << t;
    EXPECT_TRUE(rejects_with([&] { simulator.run_until(t); }, "must be finite")) << t;
  }
  // Nothing was queued and the clock did not move.
  EXPECT_EQ(simulator.pending_events(), 0u);
  EXPECT_EQ(simulator.now(), 10.0);
  // The past is still rejected as the past.
  EXPECT_TRUE(rejects_with([&] { simulator.schedule_at(5.0, [] {}); }, "in the past"));
}

TEST(Simulator, ReusesCallbackSlotsAcrossNestedScheduling) {
  // Callbacks that schedule while running land in slots the queue just
  // freed; each must still run exactly once, with its own captures.
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    simulator.schedule_at(1.0, [&simulator, &order, i] {
      order.push_back(i);
      simulator.schedule_after(0.0, [&order, i] { order.push_back(10 + i); });
    });
  }
  EXPECT_EQ(simulator.run(), 8u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator simulator;
  double when = -1.0;
  simulator.schedule_at(100.0, [&] {
    simulator.schedule_after(5.0, [&] { when = simulator.now(); });
  });
  simulator.run();
  EXPECT_EQ(when, 105.0);
}

}  // namespace
}  // namespace geored::sim
