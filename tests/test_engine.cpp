// Unit tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
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

// ---- Typed events ---------------------------------------------------------

/// Sink that records every (kind, time) it receives and can re-schedule.
struct RecordingSink final : lbmv::sim::EventSink {
  std::vector<std::pair<lbmv::sim::EventKind, double>> fired;
  int reschedule_at_same_time = 0;

  void on_sim_event(Simulation& sim, lbmv::sim::EventKind kind) override {
    fired.emplace_back(kind, sim.now());
    if (reschedule_at_same_time > 0) {
      --reschedule_at_same_time;
      sim.schedule_event(sim.now(), lbmv::sim::EventKind::kEpochBoundary,
                         this);
    }
  }
};

TEST(Engine, TypedEventsDispatchInTimeOrderWithKinds) {
  Simulation sim;
  RecordingSink sink;
  sim.schedule_event(2.0, lbmv::sim::EventKind::kServiceCompletion, &sink);
  sim.schedule_event(1.0, lbmv::sim::EventKind::kArrival, &sink);
  sim.schedule_event(3.0, lbmv::sim::EventKind::kHorizon, &sink);
  sim.run();
  ASSERT_EQ(sink.fired.size(), 3u);
  EXPECT_EQ(sink.fired[0].first, lbmv::sim::EventKind::kArrival);
  EXPECT_EQ(sink.fired[1].first, lbmv::sim::EventKind::kServiceCompletion);
  EXPECT_EQ(sink.fired[2].first, lbmv::sim::EventKind::kHorizon);
  EXPECT_DOUBLE_EQ(sink.fired[2].second, 3.0);
}

TEST(Engine, TypedAndClosureEventsInterleaveInSchedulingOrder) {
  Simulation sim;
  RecordingSink sink;
  std::vector<int> order;
  sim.schedule(5.0, [&] { order.push_back(0); });
  sim.schedule_event(5.0, lbmv::sim::EventKind::kArrival, &sink);
  sim.schedule(5.0, [&] { order.push_back(2); });
  sim.run();
  // The typed event fired between the two closures (FIFO at equal time).
  ASSERT_EQ(order, (std::vector<int>{0, 2}));
  ASSERT_EQ(sink.fired.size(), 1u);
  EXPECT_EQ(sim.processed(), 3u);
}

TEST(Engine, TypedEventValidation) {
  Simulation sim;
  RecordingSink sink;
  EXPECT_THROW(
      sim.schedule_event(1.0, lbmv::sim::EventKind::kArrival, nullptr),
      lbmv::util::PreconditionError);
  EXPECT_THROW(sim.schedule_event(1.0, lbmv::sim::EventKind::kClosure, &sink),
               lbmv::util::PreconditionError);
  EXPECT_THROW(
      sim.schedule_event_after(-1.0, lbmv::sim::EventKind::kArrival, &sink),
      lbmv::util::PreconditionError);
}

TEST(Engine, ResetForgetsEventsAndClock) {
  Simulation sim;
  int fired = 0;
  sim.schedule(5.0, [&] { ++fired; });
  sim.run_until(1.0);
  sim.reset();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  sim.schedule(0.5, [&] { ++fired; });  // before the old event's time: fine
  sim.run();
  EXPECT_EQ(fired, 1);
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

TEST(Engine, RunUntilTypedRescheduleAtSameTimeTerminates) {
  Simulation sim;
  RecordingSink sink;
  sink.reschedule_at_same_time = 3;  // bounded same-time chain
  sim.schedule_event(1.0, lbmv::sim::EventKind::kEpochBoundary, &sink);
  sim.run_until(1.0);
  EXPECT_EQ(sink.fired.size(), 4u);  // original + 3 re-schedules
  for (const auto& [kind, time] : sink.fired) EXPECT_DOUBLE_EQ(time, 1.0);
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

TEST(Engine, ClosureSlotsAreRecycled) {
  // The pooled slab must reuse slots: a long self-rescheduling chain keeps
  // at most a handful of closures alive no matter how many events fire.
  Simulation sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10000) sim.schedule_after(1.0, tick);
  };
  sim.schedule(0.0, tick);
  sim.run();
  EXPECT_EQ(count, 10000);
  EXPECT_EQ(sim.processed(), 10000u);
}

// ---- observability flush contract -------------------------------------------

/// Enables recording on a freshly reset global registry for one test.
struct RecordingScope {
  RecordingScope() {
    lbmv::obs::set_enabled(true);
    lbmv::obs::Registry::global().reset();
  }
  ~RecordingScope() { lbmv::obs::set_enabled(false); }
};

/// The event-loop families as the registry currently publishes them.
struct SimTotals {
  std::uint64_t events = 0;
  std::uint64_t by_kind = 0;  ///< sum over lbmv_sim_events_kind_total
  double queue_depth = 0.0;
};

SimTotals sim_totals() {
  const lbmv::obs::MetricsSnapshot snap =
      lbmv::obs::Registry::global().snapshot();
  SimTotals t;
  for (const auto& [name, value] : snap.counters) {
    if (name == "lbmv_sim_events_total") t.events = value;
    if (name.rfind("lbmv_sim_events_kind_total{", 0) == 0) t.by_kind += value;
  }
  const auto depth = snap.gauges.find("lbmv_sim_queue_depth");
  if (depth != snap.gauges.end()) t.queue_depth = depth->second;
  return t;
}

/// Stateless periodic sink: reschedules itself on whichever simulation
/// dispatched it, so copies of a simulation keep ticking independently.
struct Ticker final : lbmv::sim::EventSink {
  double period = 1.0;
  double horizon = 1e12;
  void on_sim_event(Simulation& sim, lbmv::sim::EventKind kind) override {
    if (sim.now() + period <= horizon) {
      sim.schedule_event_after(period, kind, this);
    }
  }
};

void start_tickers(Simulation& sim, Ticker& ticker, int count) {
  for (int k = 0; k < count; ++k) {
    sim.schedule_event(ticker.period * k / count,
                       lbmv::sim::EventKind::kArrival, &ticker);
  }
}

#define SKIP_IF_COMPILED_OUT()         \
  if (!lbmv::obs::kCompiledIn)         \
  GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)"

TEST(EngineObs, StepLoopPublishesOnCadenceAndOnDestruction) {
  SKIP_IF_COMPILED_OUT();
  const RecordingScope recording;
  Ticker ticker;
  std::size_t processed = 0;
  std::size_t pending = 0;
  {
    Simulation sim;
    start_tickers(sim, ticker, 8);
    for (std::uint64_t s = 0; s < Simulation::kObsFlushEvents; ++s) {
      ASSERT_TRUE(sim.step());
    }
    // The cadence flush ran at the end of the last step.
    SimTotals t = sim_totals();
    EXPECT_EQ(t.events, sim.processed());
    EXPECT_EQ(t.by_kind, sim.processed());
    EXPECT_EQ(t.queue_depth, static_cast<double>(sim.pending()));

    // Between flushes the families trail the loop, by less than the
    // cadence.
    for (int s = 0; s < 100; ++s) ASSERT_TRUE(sim.step());
    t = sim_totals();
    EXPECT_EQ(t.events, Simulation::kObsFlushEvents);
    EXPECT_LT(sim.processed() - t.events, Simulation::kObsFlushEvents);
    processed = sim.processed();
    pending = sim.pending();
  }
  const SimTotals t = sim_totals();
  EXPECT_EQ(t.events, processed);
  EXPECT_EQ(t.by_kind, processed);
  EXPECT_EQ(t.queue_depth, static_cast<double>(pending));
}

TEST(EngineObs, RunUntilLoopIsExactWhenItReturns) {
  SKIP_IF_COMPILED_OUT();
  const RecordingScope recording;
  Ticker ticker;
  ticker.period = 0.01;
  Simulation sim;
  start_tickers(sim, ticker, 5);
  // Windows of ~500 to ~5000 events: some cross a cadence flush, some not.
  for (const double t : {1.0, 2.0, 12.0, 12.5, 30.0}) {
    sim.run_until(t);
    const SimTotals totals = sim_totals();
    EXPECT_EQ(totals.events, sim.processed()) << "t = " << t;
    EXPECT_EQ(totals.by_kind, sim.processed()) << "t = " << t;
    EXPECT_EQ(totals.queue_depth, static_cast<double>(sim.pending()))
        << "t = " << t;
  }
  // reset() walks the depth back and publishes what it still held.
  const std::size_t processed = sim.processed();
  sim.reset();
  const SimTotals totals = sim_totals();
  EXPECT_EQ(totals.events, processed);
  EXPECT_EQ(totals.queue_depth, 0.0);
}

TEST(EngineObs, MovesDoNotCountDeltasTwice) {
  SKIP_IF_COMPILED_OUT();
  const RecordingScope recording;
  Ticker ticker;
  ticker.horizon = 1e6;
  std::size_t pending = 0;
  {
    // Every simulation stays far below the flush cadence, so each delta
    // is still unpublished when it is moved.
    Simulation a;
    start_tickers(a, ticker, 8);
    for (int s = 0; s < 100; ++s) ASSERT_TRUE(a.step());
    Simulation c(std::move(a));  // move: takes a's deltas over
    for (int s = 0; s < 30; ++s) ASSERT_TRUE(c.step());
    Simulation e;
    start_tickers(e, ticker, 2);
    ASSERT_TRUE(e.step());
    e = std::move(c);  // move-assign: e publishes its own deltas first
    for (int s = 0; s < 20; ++s) ASSERT_TRUE(e.step());
    pending = e.pending();
  }
  const SimTotals t = sim_totals();
  EXPECT_EQ(t.events, 100u + 30u + 1u + 20u);
  EXPECT_EQ(t.by_kind, t.events);
  // e's own two tickers were scheduled (+2), one dispatched and one
  // rescheduled (net +0), then vanished with the move-assign like a
  // destroyed simulation's pending events: +2 left behind.
  EXPECT_EQ(t.queue_depth, static_cast<double>(pending + 2));
}

}  // namespace
