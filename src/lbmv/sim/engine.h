#pragma once

/// \file engine.h
/// Deterministic discrete-event simulation engine (typed, allocation-free
/// hot path).
///
/// The paper evaluates the mechanism "by simulation" but assumes the
/// execution values t~ are simply *known* to the mechanism after execution.
/// lbmv builds the substrate that assumption hides: jobs actually arrive,
/// queue and execute on simulated servers, and the mechanism's verification
/// step estimates the execution values from observed completions
/// (see rate_estimator.h / protocol.h).
///
/// ## Event representation
///
/// The seed engine dispatched one heap-allocated `std::function` closure per
/// event, which made the event loop itself the bottleneck of every
/// simulation-driven experiment.  This engine instead stores 24-byte POD
/// events in a calendar (ladder) queue and dispatches the *known* event
/// kinds (job arrival, service completion, epoch boundary, horizon) through
/// a non-owning EventSink interface: one virtual call per event, zero
/// allocations in steady state.  Generic closures are still supported (the
/// distributed protocols and tests use them) via a pooled slab with a free
/// list, so even the closure path reuses storage instead of growing the
/// queue node-by-node.
///
/// ## Calendar queue
///
/// A comparison heap costs O(log n) branchy work per event; with tens of
/// thousands of pending events the comparisons dominate the loop.  The
/// calendar queue instead keeps an *active window* [win_start, win_end)
/// split into power-of-two buckets sized so that steady-state occupancy is
/// about one event per bucket: scheduling hashes the timestamp to a bucket
/// (O(1)), popping walks the bucket cursor forward (O(1) amortised).
/// Events beyond the window land in an unsorted overflow band; when the
/// window drains, the next window is carved off the overflow with
/// nth_element, which re-sizes bucket count and width to the *local* event
/// density — a far-future outlier (e.g. a horizon marker) cannot distort
/// the bucket width the way it would with a span/size estimate.  Every
/// operation is ordered by the exact (time, seq) key, so the pop sequence
/// is identical to the heap's and determinism is untouched.
///
/// ## Ordering and determinism
///
/// Events with equal timestamps are processed in scheduling order: a strict
/// monotone sequence number breaks ties, so runs are reproducible
/// bit-for-bit regardless of event kind.  The legacy `std::function` loop is
/// preserved verbatim in legacy_engine.h and a differential test
/// (test_sim_determinism) proves both loops produce identical completion
/// traces.
///
/// ## Observability
///
/// With recording on, every event would cost three registry probes
/// (events_total, events_by_kind, queue_depth).  The simulation instead
/// keeps those deltas in plain members and publishes them every
/// kObsFlushEvents dispatched events, when run() and run_until() return,
/// in reset(), and on destruction.  A scraper (the time-series sampler,
/// `lbmv obs --watch`) therefore sees the event-loop families fewer than
/// kObsFlushEvents events behind a running simulation, and exact once it
/// has flushed: lbmv_sim_events_total == processed() and
/// lbmv_sim_queue_depth == pending() for a lone simulation.  Deltas still
/// unpublished when recording is switched off are dropped, like any probe
/// fired while recording is off.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace lbmv::sim {

/// Simulated seconds since the start of the run.
using SimTime = double;

/// The event kinds the simulator knows how to dispatch without type erasure.
/// kClosure is the generic escape hatch (a pooled std::function).
enum class EventKind : std::uint8_t {
  kClosure = 0,
  kArrival = 1,            ///< job-source arrival tick
  kServiceCompletion = 2,  ///< server finishes the job in service
  kEpochBoundary = 3,      ///< periodic protocol/epoch boundary
  kHorizon = 4,            ///< end-of-run marker
};

/// Number of EventKind values (the size of lbmv_sim_events_kind_total).
inline constexpr std::size_t kEventKindCount = 5;

class Simulation;

/// Receiver of typed events.  Long-lived simulation components (servers,
/// job sources, epoch drivers) implement this once; scheduling an event
/// then costs one POD heap insertion and no allocation.  The simulation
/// does not own sinks; a sink must outlive every event scheduled on it.
class EventSink {
 public:
  virtual void on_sim_event(Simulation& sim, EventKind kind) = 0;

 protected:
  ~EventSink() = default;  // non-owning: never deleted through the interface
};

/// A minimal event-loop simulator: schedule typed events or closures at
/// absolute times and drain them in (time, insertion) order.
class Simulation {
 public:
  using Handler = std::function<void()>;

  /// Dispatched events between two publications of the event-loop probe
  /// deltas (see "Observability" above).
  static constexpr std::uint64_t kObsFlushEvents = 4096;

  Simulation() = default;
  /// Move-only: a move hands the unpublished probe deltas to the target.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  Simulation(Simulation&& other) noexcept = default;
  Simulation& operator=(Simulation&& other) noexcept = default;
  /// Publishes the probe deltas still pending (ObsDeltas' destructor).
  ~Simulation() = default;

  /// Schedule \p handler at absolute \p time.  Requires time >= now().
  /// The handler is stored in a pooled slab slot that is recycled after the
  /// event fires.
  void schedule(SimTime time, Handler handler);

  /// Schedule \p handler \p delay seconds from now.  Requires delay >= 0.
  void schedule_after(SimTime delay, Handler handler);

  /// Schedule a typed event for \p sink at absolute \p time.  Requires
  /// time >= now(), a non-null sink, and kind != kClosure.  Never allocates
  /// once the heap has warmed up to its steady-state size.
  void schedule_event(SimTime time, EventKind kind, EventSink* sink);

  /// Typed counterpart of schedule_after.
  void schedule_event_after(SimTime delay, EventKind kind, EventSink* sink);

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

  /// Pre-size the overflow band (and closure slab) for \p events
  /// outstanding events, so steady-state operation never reallocates.
  void reserve(std::size_t events);

  /// Forget all pending events and reset the clock to zero, keeping the
  /// bucket/slab capacity.  Allows arena-style reuse across replications.
  void reset();

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t processed() const { return processed_; }
  [[nodiscard]] std::size_t pending() const {
    return in_buckets_ + overflow_.size();
  }

 private:
  /// 24-byte POD event.  The sequence number and kind share one word: kind
  /// lives in the low 3 bits, the scheduling sequence in the high 61, so
  /// comparing seq_kind compares sequence numbers (kinds never reorder
  /// ties).  payload is an EventSink* for typed events or a closure-slab
  /// index for kClosure.
  struct Event {
    SimTime time;
    std::uint64_t seq_kind;
    std::uintptr_t payload;
  };

  static constexpr unsigned kKindBits = 3;

  [[nodiscard]] static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_kind < b.seq_kind;
  }
  [[nodiscard]] static EventKind kind_of(const Event& e) {
    return static_cast<EventKind>(e.seq_kind & ((1u << kKindBits) - 1));
  }

  void push_event(SimTime time, EventKind kind, std::uintptr_t payload);
  /// Place an event in its calendar bucket (sorted position) and rewind the
  /// cursor if the event lands behind it.
  void insert_bucket(const Event& event);
  /// Pointer to the earliest pending event, or nullptr when none.  Advances
  /// the bucket cursor over drained buckets and refills the window from the
  /// overflow band as needed (both safe: pushes behind the cursor rewind it).
  [[nodiscard]] const Event* peek();
  /// Remove and return the event peek() found.  Requires a prior successful
  /// peek with no intervening push.
  [[nodiscard]] Event pop_top();
  /// Carve the next active window off the overflow band and bucket it.
  void refill_window();
  void dispatch(const Event& event);

  /// Event-loop probe deltas, held in plain members and published to the
  /// registry in one batch by flush().  A move hands the deltas over;
  /// destruction flushes.
  struct ObsDeltas {
    std::uint64_t events = 0;  ///< dispatches since the last flush
    std::uint64_t by_kind[kEventKindCount] = {};
    std::int64_t queue_depth = 0;

    ObsDeltas() = default;
    ObsDeltas(const ObsDeltas&) = delete;
    ObsDeltas& operator=(const ObsDeltas&) = delete;
    ObsDeltas(ObsDeltas&& other) noexcept;
    ObsDeltas& operator=(ObsDeltas&& other) noexcept;
    ~ObsDeltas() { flush(); }

    void flush();
  };

  // Calendar-queue state: the active window [win_start_, win_end_) hashed
  // into buckets_ (sorted descending within a bucket, so the minimum is a
  // pop_back), plus the unsorted overflow band for events beyond the window.
  std::vector<std::vector<Event>> buckets_;
  std::vector<Event> overflow_;
  double win_start_ = 0.0;
  double win_end_ = -1.0;  // empty window: everything overflows until refill
  double inv_width_ = 0.0;
  std::size_t cur_ = 0;           // buckets below cur_ are empty
  std::size_t in_buckets_ = 0;    // events currently bucketed

  std::vector<Handler> closure_slots_;
  std::vector<std::uint32_t> free_closure_slots_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t last_key_ = 0;  // monotone-progress check across steps
  SimTime last_time_ = 0.0;
  std::size_t processed_ = 0;
  ObsDeltas obs_;
};

}  // namespace lbmv::sim
