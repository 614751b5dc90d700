// Unit tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "lbmv/sim/engine.h"
#include "lbmv/util/error.h"

namespace {

using lbmv::sim::Simulation;

TEST(Engine, ProcessesEventsInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(Engine, EqualTimestampsKeepSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, HandlersCanScheduleMoreWork) {
  Simulation sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule_after(1.0, tick);
  };
  sim.schedule(0.0, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Simulation sim;
  sim.schedule(2.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(1.0, [] {}), lbmv::util::PreconditionError);
  EXPECT_THROW(sim.schedule_after(-0.5, [] {}),
               lbmv::util::PreconditionError);
}

TEST(Engine, NullHandlerRejected) {
  Simulation sim;
  EXPECT_THROW(sim.schedule(1.0, nullptr), lbmv::util::PreconditionError);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Engine, RunUntilAdvancesClockWithoutFutureEvents) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] { ++fired; });
  sim.schedule(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_THROW(sim.run_until(3.0), lbmv::util::PreconditionError);
}

TEST(Engine, ClockIsMonotoneAcrossManyRandomishEvents) {
  Simulation sim;
  double last_seen = -1.0;
  bool monotone = true;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 997);
    sim.schedule(t, [&, t] {
      if (t < last_seen) monotone = false;
      last_seen = t;
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.processed(), 1000u);
}

// ---- run_until edge semantics (regression) --------------------------------

TEST(Engine, RunUntilProcessesWorkRescheduledAtExactlyT) {
  // A handler running at exactly t schedules more work at exactly t: the
  // new work must run within the same run_until call (inclusive semantics),
  // in FIFO order, and the call must terminate once the chain stops.
  Simulation sim;
  std::vector<int> order;
  std::function<void(int)> chain = [&](int depth) {
    order.push_back(depth);
    if (depth < 4) {
      sim.schedule(sim.now(), [&, depth] { chain(depth + 1); });
    }
  };
  sim.schedule(2.0, [&] { chain(0); });
  sim.schedule(2.0, [&] { order.push_back(100); });  // pre-scheduled tie
  sim.run_until(2.0);
  // Chain link 1..4 were scheduled *after* the pre-existing tie, so the
  // pre-existing event fires before them (seq FIFO), then the chain drains.
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.processed(), 6u);
}

TEST(Engine, RunUntilLeavesStrictlyLaterWorkPending) {
  Simulation sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule(std::nextafter(1.0, 2.0), [&] { ++fired; });
  });
  sim.run_until(1.0);
  EXPECT_EQ(fired, 1);  // the strictly-later event stays queued
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

}  // namespace
