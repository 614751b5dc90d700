#include "lbmv/sim/engine.h"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::sim {

namespace {

// Bucket-count bounds for the calendar windows.  The lower bound keeps tiny
// simulations from resizing constantly; the upper bound caps the bucket
// array for degenerate multi-million-event backlogs (extra events simply
// wait in the overflow band for a later window).
constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;

static_assert(std::extent_v<decltype(obs::SimProbes::events_by_kind)> ==
              kEventKindCount);

}  // namespace

// ---- observability deltas ---------------------------------------------------

Simulation::ObsDeltas::ObsDeltas(ObsDeltas&& other) noexcept
    : events(std::exchange(other.events, 0)),
      queue_depth(std::exchange(other.queue_depth, 0)) {
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    by_kind[k] = std::exchange(other.by_kind[k], 0);
  }
}

Simulation::ObsDeltas& Simulation::ObsDeltas::operator=(
    ObsDeltas&& other) noexcept {
  if (this != &other) {
    flush();
    events = std::exchange(other.events, 0);
    queue_depth = std::exchange(other.queue_depth, 0);
    for (std::size_t k = 0; k < kEventKindCount; ++k) {
      by_kind[k] = std::exchange(other.by_kind[k], 0);
    }
  }
  return *this;
}

void Simulation::ObsDeltas::flush() {
  if (events == 0 && queue_depth == 0) return;  // by_kind sums to events
  obs::SimProbes& probes = obs::SimProbes::get();
  probes.events_total.inc(events);
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    if (by_kind[k] != 0) probes.events_by_kind[k].inc(by_kind[k]);
    by_kind[k] = 0;
  }
  probes.queue_depth.add(static_cast<double>(queue_depth));
  events = 0;
  queue_depth = 0;
}

void Simulation::push_event(SimTime time, EventKind kind,
                            std::uintptr_t payload) {
  LBMV_REQUIRE(time >= now_, "cannot schedule an event in the past");
  const std::uint64_t seq_kind =
      (next_seq_++ << kKindBits) | static_cast<std::uint64_t>(kind);
  const Event event{time, seq_kind, payload};
  if (time < win_end_) {
    insert_bucket(event);
  } else {
    overflow_.push_back(event);
  }
  if (obs::enabled()) ++obs_.queue_depth;
}

void Simulation::insert_bucket(const Event& event) {
  // The clock can trail win_start_ briefly after a refill (the last events
  // of the previous window are still being dispatched), so clamp instead of
  // hashing a negative offset.
  std::size_t idx =
      event.time <= win_start_
          ? 0
          : static_cast<std::size_t>((event.time - win_start_) * inv_width_);
  if (idx >= buckets_.size()) idx = buckets_.size() - 1;
  auto& bucket = buckets_[idx];
  // Buckets are sorted descending by (time, seq) so the minimum pops from
  // the back in O(1).  New events are usually the latest in their bucket
  // (near-future scheduling), so the scan almost always stops immediately.
  std::size_t i = 0;
  while (i < bucket.size() && earlier(event, bucket[i])) ++i;
  bucket.insert(bucket.begin() + static_cast<std::ptrdiff_t>(i), event);
  ++in_buckets_;
  if (idx < cur_) cur_ = idx;  // never let the cursor skip a new arrival
}

void Simulation::refill_window() {
  LBMV_ASSERT(in_buckets_ == 0 && !overflow_.empty(),
              "refill requires a drained window and pending overflow");
  const std::size_t count = overflow_.size();
  std::size_t nb = kMinBuckets;
  while (nb < count && nb < kMaxBuckets) nb <<= 1;
  if (buckets_.size() < nb) buckets_.resize(nb);

  // Window span from the *local* density: the `take` earliest events define
  // both bounds, so one far-future outlier (a horizon marker, say) cannot
  // stretch the bucket width into uselessness.
  const std::size_t take = std::min(count, buckets_.size());
  const auto by_key = [](const Event& a, const Event& b) {
    return earlier(a, b);
  };
  if (take < count) {
    std::nth_element(overflow_.begin(),
                     overflow_.begin() + static_cast<std::ptrdiff_t>(take - 1),
                     overflow_.end(), by_key);
  }
  double lo = overflow_[0].time;
  double hi = overflow_[0].time;
  for (std::size_t i = 1; i < take; ++i) {
    lo = std::min(lo, overflow_[i].time);
    hi = std::max(hi, overflow_[i].time);
  }
  const double span = hi - lo;
  double width = span > 0.0 ? span / static_cast<double>(take) : 1.0;
  if (!std::isfinite(width) || width <= 0.0 ||
      !std::isfinite(1.0 / width)) {
    width = 1.0;
  }
  // win_end_ must lie strictly beyond the boundary event or it would sit in
  // the overflow band forever; widen until double rounding can't eat it.
  double end = hi + width;
  while (end <= hi) {
    width *= 2.0;
    end = hi + width;
  }
  win_start_ = lo;
  win_end_ = end;
  inv_width_ = 1.0 / width;
  cur_ = 0;  // lo hashes to bucket zero

  std::size_t kept = 0;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    const Event& e = overflow_[i];
    if (e.time < win_end_) {
      insert_bucket(e);
    } else {
      overflow_[kept++] = e;
    }
  }
  overflow_.resize(kept);
  LBMV_ASSERT(in_buckets_ > 0, "refill must bucket at least one event");
  if (obs::enabled()) {
    obs::SimProbes& probes = obs::SimProbes::get();
    probes.window_refills.inc();
    probes.window_fill.record(static_cast<double>(in_buckets_));
  }
}

const Simulation::Event* Simulation::peek() {
  for (;;) {
    if (in_buckets_ > 0) {
      while (buckets_[cur_].empty()) ++cur_;
      return &buckets_[cur_].back();
    }
    if (overflow_.empty()) return nullptr;
    refill_window();
  }
}

Simulation::Event Simulation::pop_top() {
  auto& bucket = buckets_[cur_];
  const Event top = bucket.back();
  bucket.pop_back();
  --in_buckets_;
  return top;
}

void Simulation::schedule(SimTime time, Handler handler) {
  LBMV_REQUIRE(handler != nullptr, "event handler must not be null");
  std::uint32_t slot;
  if (!free_closure_slots_.empty()) {
    slot = free_closure_slots_.back();
    free_closure_slots_.pop_back();
    closure_slots_[slot] = std::move(handler);
  } else {
    slot = static_cast<std::uint32_t>(closure_slots_.size());
    closure_slots_.push_back(std::move(handler));
  }
  if (obs::enabled()) obs::SimProbes::get().slab_in_use.add(1.0);
  push_event(time, EventKind::kClosure, slot);
}

void Simulation::schedule_after(SimTime delay, Handler handler) {
  LBMV_REQUIRE(delay >= 0.0, "delay must be non-negative");
  schedule(now_ + delay, std::move(handler));
}

void Simulation::schedule_event(SimTime time, EventKind kind,
                                EventSink* sink) {
  LBMV_REQUIRE(sink != nullptr, "event sink must not be null");
  LBMV_REQUIRE(kind != EventKind::kClosure,
               "kClosure events carry a handler; use schedule()");
  push_event(time, kind, reinterpret_cast<std::uintptr_t>(sink));
}

void Simulation::schedule_event_after(SimTime delay, EventKind kind,
                                      EventSink* sink) {
  LBMV_REQUIRE(delay >= 0.0, "delay must be non-negative");
  schedule_event(now_ + delay, kind, sink);
}

void Simulation::dispatch(const Event& event) {
  if (kind_of(event) == EventKind::kClosure) {
    const auto slot = static_cast<std::uint32_t>(event.payload);
    // Move the handler out before invoking: the handler may schedule new
    // closures, which can reuse (or grow past) this slot.
    Handler handler = std::move(closure_slots_[slot]);
    closure_slots_[slot] = nullptr;
    free_closure_slots_.push_back(slot);
    if (obs::enabled()) obs::SimProbes::get().slab_in_use.add(-1.0);
    handler();
  } else {
    reinterpret_cast<EventSink*>(event.payload)
        ->on_sim_event(*this, kind_of(event));
  }
}

bool Simulation::step() {
  if (peek() == nullptr) return false;
  const Event event = pop_top();
  // Monotone progress: (time, seq) strictly increases step over step, so no
  // event can run twice and equal-time re-scheduling cannot starve older
  // events — the termination guarantee run_until's edge semantics rely on.
  LBMV_ASSERT(processed_ == 0 || event.time > last_time_ ||
                  (event.time == last_time_ && event.seq_kind > last_key_),
              "event keys must advance monotonically");
  last_time_ = event.time;
  last_key_ = event.seq_kind;
  now_ = event.time;
  ++processed_;
  if (obs::enabled()) {
    ++obs_.events;
    ++obs_.by_kind[static_cast<std::size_t>(kind_of(event))];
    --obs_.queue_depth;
  }
  dispatch(event);
  // After the dispatch, so a flushed queue_depth includes what it scheduled.
  if (obs_.events >= kObsFlushEvents) obs_.flush();
  return true;
}

void Simulation::run() {
  while (step()) {
  }
  obs_.flush();
}

void Simulation::run_until(SimTime t) {
  LBMV_REQUIRE(t >= now_, "cannot run the clock backwards");
  // Inclusive semantics: events scheduled at exactly t while processing
  // time-t events are drained too (see the header contract).
  for (const Event* top = peek(); top != nullptr && top->time <= t;
       top = peek()) {
    step();
  }
  now_ = t;
  obs_.flush();
}

void Simulation::reserve(std::size_t events) {
  overflow_.reserve(events);
  closure_slots_.reserve(events);
  free_closure_slots_.reserve(events);
}

void Simulation::reset() {
  if (obs::enabled()) {
    // Pending work vanishes with the reset; walk the occupancy gauges back
    // down so they keep meaning "currently live" across reuse.
    obs_.queue_depth -= static_cast<std::int64_t>(pending());
    obs::SimProbes::get().slab_in_use.add(-static_cast<double>(
        closure_slots_.size() - free_closure_slots_.size()));
  }
  obs_.flush();
  for (auto& bucket : buckets_) bucket.clear();
  overflow_.clear();
  closure_slots_.clear();
  free_closure_slots_.clear();
  win_start_ = 0.0;
  win_end_ = -1.0;
  inv_width_ = 0.0;
  cur_ = 0;
  in_buckets_ = 0;
  now_ = 0.0;
  next_seq_ = 0;
  last_key_ = 0;
  last_time_ = 0.0;
  processed_ = 0;
}

}  // namespace lbmv::sim
