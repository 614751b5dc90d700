#include "lbmv/sim/lindley.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "lbmv/obs/obs.h"
#include "lbmv/obs/probes.h"
#include "lbmv/sim/job_source.h"
#include "lbmv/util/error.h"

namespace lbmv::sim {
namespace {

// One service duration, drawn as Server::begin_service draws it.
double draw_service(util::Rng& rng, ServiceModel model, double mean) {
  switch (model) {
    case ServiceModel::kExponential:
      return rng.exponential(1.0 / mean);
    case ServiceModel::kDeterministic:
      return mean;
    case ServiceModel::kErlang2:
      // Sum of two exponentials with mean m/2 each (IEEE addition
      // commutes, so the draw order inside the sum cannot matter).
      return rng.exponential(2.0 / mean) + rng.exponential(2.0 / mean);
  }
  LBMV_ASSERT(false, "unknown service model");
  return mean;
}

// One server's arrival, completion and waiting-time families, in one batch.
void publish_server(std::size_t index, std::span<const Completion> plane) {
  obs::Registry& registry = obs::Registry::global();
  const std::string name = "C" + std::to_string(index + 1);
  obs::Counter arrivals = registry.counter(
      obs::labeled("lbmv_server_arrivals_total", "server", name));
  obs::Counter completions = registry.counter(
      obs::labeled("lbmv_server_completions_total", "server", name));
  obs::Histogram waiting = registry.histogram(
      obs::labeled("lbmv_server_waiting_seconds", "server", name));
  if (plane.empty()) return;
  arrivals.inc(plane.size());
  completions.inc(plane.size());
  waiting.record_each(plane.size(), [first = plane.data()](std::size_t k) {
    return first[k].waiting_time();
  });
}

}  // namespace

ServerPlanes simulate_servers(std::span<const double> rates,
                              std::span<const double> execution_values,
                              ServiceModel model, SimTime horizon,
                              const util::Rng& rng) {
  const std::size_t n = rates.size();
  LBMV_REQUIRE(n > 0, "job source needs at least one server");
  LBMV_REQUIRE(execution_values.size() == n, "one rate per server required");
  const double total_rate = checked_total_rate(rates, horizon);
  std::vector<double> means(n);
  for (std::size_t i = 0; i < n; ++i) {
    means[i] = mean_service_from_linear_coefficient(execution_values[i], model);
  }
  // Accumulate left-to-right exactly like Rng::categorical (JobSource's
  // routing) so the routing picks the same server for the same uniform draw.
  std::vector<double> cumulative(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += rates[i];
    cumulative[i] = sum;
  }

  ServerPlanes planes;
  planes.completions.resize(n);
  planes.busy_time.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    // Capacity hint only: a Poisson count rarely exceeds its mean by 4 sd.
    const double expected = rates[i] * horizon;
    planes.completions[i].reserve(
        static_cast<std::size_t>(expected + 4.0 * std::sqrt(expected)) + 16);
  }

  // The source stream: the first arrival at 0 + gap, then per arrival one
  // routing draw and one gap draw; the first arrival past the horizon is
  // dropped without drawing, as JobSource::arrival drops it.
  util::Rng source = rng.split(0);
  std::uint64_t next_id = 0;
  for (SimTime t = 0.0 + source.exponential(total_rate); !(t > horizon);
       t += source.exponential(total_rate)) {
    const double u = source.uniform() * total_rate;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t target =
        it == cumulative.end()
            ? n - 1
            : static_cast<std::size_t>(it - cumulative.begin());
    planes.completions[target].push_back(Completion{next_id++, t, 0.0, 0.0});
  }
  planes.jobs = next_id;

  // Each server's Lindley recursion, one draw per job in arrival order.
  for (std::size_t i = 0; i < n; ++i) {
    util::Rng server = rng.split(i + 1);
    SimTime free_at = 0.0;
    double busy = 0.0;
    for (Completion& c : planes.completions[i]) {
      const double service = draw_service(server, model, means[i]);
      c.start = std::max(c.arrival, free_at);
      c.finish = c.start + service;
      free_at = c.finish;
      busy += service;
    }
    planes.busy_time[i] = busy;
  }

  if (obs::enabled()) {
    obs::SimProbes::get().source_jobs.inc(planes.jobs);
    for (std::size_t i = 0; i < n; ++i) {
      publish_server(i, planes.completions[i]);
    }
  }
  return planes;
}

}  // namespace lbmv::sim
