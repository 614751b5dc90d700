#include "lbmv/sim/engine.h"

#include <utility>

#include "lbmv/util/error.h"

namespace lbmv::sim {

void Simulation::schedule(SimTime time, Handler handler) {
  LBMV_REQUIRE(time >= now_, "cannot schedule an event in the past");
  LBMV_REQUIRE(handler != nullptr, "event handler must not be null");
  queue_.push(Event{time, next_seq_++, std::move(handler)});
}

void Simulation::schedule_after(SimTime delay, Handler handler) {
  LBMV_REQUIRE(delay >= 0.0, "delay must be non-negative");
  schedule(now_ + delay, std::move(handler));
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  // priority_queue::top is const; the handler is moved out via const_cast on
  // a field that is never read again before pop.
  Event event = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = event.time;
  ++processed_;
  event.handler();
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(SimTime t) {
  LBMV_REQUIRE(t >= now_, "cannot run the clock backwards");
  // Inclusive semantics: events scheduled at exactly t while processing
  // time-t events are drained too (see the header contract).
  while (!queue_.empty() && queue_.top().time <= t) {
    step();
  }
  now_ = t;
}

}  // namespace lbmv::sim
