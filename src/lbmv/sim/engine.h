#pragma once

/// \file engine.h
/// Deterministic discrete-event simulation engine.
///
/// The paper evaluates the mechanism "by simulation" but assumes the
/// execution values t~ are simply *known* to the mechanism after execution.
/// lbmv builds the substrate that assumption hides: jobs actually arrive,
/// queue and execute on simulated servers, and the mechanism's verification
/// step estimates the execution values from observed completions
/// (see rate_estimator.h / protocol.h).
///
/// Protocol rounds run no event loop: each server's trajectory is the
/// Lindley recursion of lindley.h.  This loop drives the distributed
/// protocols (dist/) and, with Server and JobSource, is the recursion's
/// event-driven oracle (test_protocol).  It is a binary heap of
/// (time, seq, std::function) events.
///
/// ## Ordering and determinism
///
/// Events with equal timestamps are processed in scheduling order: a strict
/// monotone sequence number breaks ties, so runs are reproducible
/// bit-for-bit.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace lbmv::sim {

/// Simulated seconds since the start of the run.
using SimTime = double;

/// A minimal event-loop simulator: schedule closures at absolute times and
/// drain them in (time, insertion) order.
class Simulation {
 public:
  using Handler = std::function<void()>;

  /// Schedule \p handler at absolute \p time.  Requires time >= now() and a
  /// non-null handler.
  void schedule(SimTime time, Handler handler);

  /// Schedule \p handler \p delay seconds from now.  Requires delay >= 0.
  void schedule_after(SimTime delay, Handler handler);

  /// Execute the next event.  Returns false when the queue is empty.
  bool step();

  /// Drain every event (terminates when no handler schedules new work).
  void run();

  /// Process all events with time <= \p t, then advance the clock to t.
  ///
  /// Edge semantics at exactly t: an event handler running at time t that
  /// schedules new work at exactly t *does* get that work processed within
  /// the same run_until call, after every previously scheduled time-t event
  /// (the strict monotone sequence number keeps ties FIFO).  Each scheduled
  /// event is processed exactly once and the (time, seq) key of consecutive
  /// steps is strictly increasing, so run_until(t) terminates if and only
  /// if handlers schedule finitely many events at times <= t — the same
  /// contract run() has for the whole timeline.  A handler that
  /// unconditionally re-schedules itself at now() is a caller bug, not an
  /// ordering ambiguity.
  void run_until(SimTime t);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t processed() const { return processed_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
};

}  // namespace lbmv::sim
