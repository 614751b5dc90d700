#include "lbmv/sim/server.h"

#include <cmath>
#include <utility>

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
      model_(model),
      mean_service_(mean_service_from_linear_coefficient(execution_value,
                                                         model)),
      rng_(rng) {}

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
  const SimTime start = sim_->now();
  busy_time_ += service;
  sim_->schedule_after(service, [this, job, start, service] {
    completions_.push_back(
        Completion{job.id, job.arrival, start, start + service});
    if (head_ < queue_.size()) {
      begin_service();
    } else {
      busy_ = false;
    }
  });
}

void Server::reserve(std::size_t expected_jobs) {
  queue_.reserve(expected_jobs);
  completions_.reserve(expected_jobs);
}

}  // namespace lbmv::sim
