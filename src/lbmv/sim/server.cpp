#include "lbmv/sim/server.h"

#include <cmath>

#include "lbmv/obs/obs.h"
#include "lbmv/util/error.h"

namespace lbmv::sim {

double linear_coefficient_from_mean_service(double m, ServiceModel model) {
  LBMV_REQUIRE(m > 0.0, "mean service time must be positive");
  switch (model) {
    case ServiceModel::kExponential:
      return m * m;  // E[S^2]/2 = (2 m^2)/2
    case ServiceModel::kDeterministic:
      return 0.5 * m * m;  // E[S^2]/2 = m^2/2
    case ServiceModel::kErlang2:
      return 0.75 * m * m;  // E[S^2]/2 = (1.5 m^2)/2
  }
  LBMV_ASSERT(false, "unknown service model");
  return 0.0;
}

double mean_service_from_linear_coefficient(double t, ServiceModel model) {
  LBMV_REQUIRE(t > 0.0, "linear coefficient must be positive");
  switch (model) {
    case ServiceModel::kExponential:
      return std::sqrt(t);
    case ServiceModel::kDeterministic:
      return std::sqrt(2.0 * t);
    case ServiceModel::kErlang2:
      return std::sqrt(t / 0.75);
  }
  LBMV_ASSERT(false, "unknown service model");
  return 0.0;
}

Server::Server(Simulation& sim, std::string name, double execution_value,
               ServiceModel model, util::Rng rng)
    : sim_(&sim),
      name_(std::move(name)),
      execution_value_(execution_value),
      model_(model),
      mean_service_(mean_service_from_linear_coefficient(execution_value,
                                                         model)),
      rng_(rng) {
  // Labelled per-server families are only registered when recording is on
  // at construction time (enable observability before building the
  // simulation); otherwise the handles stay inert no-ops.
  if (obs::enabled()) {
    obs_live_ = true;
    obs::Registry& registry = obs::Registry::global();
    obs_arrivals_ = registry.counter(
        obs::labeled("lbmv_server_arrivals_total", "server", name_));
    obs_completions_ = registry.counter(
        obs::labeled("lbmv_server_completions_total", "server", name_));
    obs_waiting_ = registry.histogram(
        obs::labeled("lbmv_server_waiting_seconds", "server", name_));
  }
}

Server::~Server() { publish_obs(); }

void Server::publish_obs() {
  if (!obs_live_ || !obs::enabled()) return;
  const std::size_t arrivals =
      completions_.size() + queue_length() + (busy_ ? 1 : 0);
  if (arrivals != obs_arrivals_published_) {
    obs_arrivals_.inc(arrivals - obs_arrivals_published_);
    obs_arrivals_published_ = arrivals;
  }
  const std::size_t fresh = completions_.size() - obs_published_;
  if (fresh == 0) return;
  obs_completions_.inc(fresh);
  const Completion* first = completions_.data() + obs_published_;
  obs_waiting_.record_each(
      fresh, [first](std::size_t k) { return first[k].waiting_time(); });
  obs_published_ = completions_.size();
}

void Server::submit(const Job& job) {
  queue_.push_back(Job{job.id, sim_->now()});
  if (!busy_) begin_service();
}

void Server::begin_service() {
  LBMV_ASSERT(head_ < queue_.size(), "begin_service with an empty queue");
  busy_ = true;
  const Job job = queue_[head_++];
  // Reclaim the consumed prefix occasionally to bound memory.
  if (head_ > 1024 && head_ * 2 > queue_.size()) {
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  double service = mean_service_;
  switch (model_) {
    case ServiceModel::kExponential:
      service = rng_.exponential(1.0 / mean_service_);
      break;
    case ServiceModel::kDeterministic:
      break;
    case ServiceModel::kErlang2:
      // Sum of two exponentials with mean m/2 each.
      service = rng_.exponential(2.0 / mean_service_) +
                rng_.exponential(2.0 / mean_service_);
      break;
  }
  in_service_ = job;
  service_start_ = sim_->now();
  service_duration_ = service;
  busy_time_ += service;
  sim_->schedule_event_after(service, EventKind::kServiceCompletion, this);
}

void Server::on_sim_event(Simulation& sim, EventKind kind) {
  (void)sim;
  LBMV_ASSERT(kind == EventKind::kServiceCompletion,
              "server only handles service completions");
  completions_.push_back(Completion{in_service_.id, in_service_.arrival,
                                    service_start_,
                                    service_start_ + service_duration_});
  if (obs_live_ &&
      completions_.size() - obs_published_ >= kObsPublishCompletions) {
    publish_obs();
  }
  if (head_ < queue_.size()) {
    begin_service();
  } else {
    busy_ = false;
  }
}

void Server::reserve(std::size_t expected_jobs) {
  queue_.reserve(expected_jobs);
  completions_.reserve(expected_jobs);
}

void Server::reset() {
  LBMV_REQUIRE(!busy_, "cannot reset a server with a job in service");
  publish_obs();
  obs_published_ = 0;
  obs_arrivals_published_ = 0;
  queue_.clear();
  head_ = 0;
  busy_time_ = 0.0;
  completions_.clear();
}

}  // namespace lbmv::sim
