#pragma once

/// \file server.h
/// A simulated computer: FCFS single-server queue with a controllable
/// execution rate.
///
/// The mapping to the paper's linear latency model follows the paper's own
/// justification (§2): l(x) = t * x is the expected M/G/1 waiting time under
/// light load, W ~= x * E[S^2] / 2.  With exponential service of mean m,
/// E[S^2] = 2 m^2, so the linear coefficient is t = m^2: a computer of true
/// value t serves jobs with mean service time sqrt(t), and an agent
/// executing at value t~ >= t stretches its service times by
/// sqrt(t~ / t).  The verification step can therefore recover t~ from the
/// observed service times alone (rate_estimator.h).
///
/// Protocol rounds do not run this server: each of their servers is the
/// Lindley recursion of lindley.h, which draws the same service times in
/// the same order.  Server, with JobSource and Simulation, is that
/// recursion's event-driven differential oracle (test_protocol): each
/// service completion is one scheduled closure.

#include <cstdint>
#include <string>
#include <vector>

#include "lbmv/sim/engine.h"
#include "lbmv/util/rng.h"

namespace lbmv::sim {

/// How service durations are drawn around their mean.
enum class ServiceModel {
  kExponential,    ///< Exp(mean); E[S^2] = 2 m^2, linear coefficient t = m^2
  kDeterministic,  ///< constant;  E[S^2] = m^2,   linear coefficient t = m^2/2
  kErlang2,        ///< Erlang(2); E[S^2] = 1.5 m^2, coefficient t = 0.75 m^2
};

/// The linear-latency coefficient t implied by mean service time \p m under
/// \p model (t = E[S^2] / 2).
[[nodiscard]] double linear_coefficient_from_mean_service(double m,
                                                          ServiceModel model);

/// Mean service time realising linear coefficient \p t under \p model
/// (inverse of linear_coefficient_from_mean_service).
[[nodiscard]] double mean_service_from_linear_coefficient(double t,
                                                          ServiceModel model);

/// A job arriving at a server.
struct Job {
  std::uint64_t id = 0;
  SimTime arrival = 0.0;
};

/// Observed completion record — the raw material of verification.
struct Completion {
  std::uint64_t job_id = 0;
  SimTime arrival = 0.0;  ///< when the job reached the server
  SimTime start = 0.0;    ///< when service began
  SimTime finish = 0.0;   ///< when service completed

  [[nodiscard]] double waiting_time() const { return start - arrival; }
  [[nodiscard]] double service_time() const { return finish - start; }
  [[nodiscard]] double response_time() const { return finish - arrival; }
};

/// FCFS single-server queue bound to a Simulation.
class Server {
 public:
  /// \p execution_value is the linear coefficient t~ the server actually
  /// runs at; the mean service time is derived per \p model.
  Server(Simulation& sim, std::string name, double execution_value,
         ServiceModel model, util::Rng rng);
  // Scheduled completions capture this server's address, so it can be
  // neither copied nor moved.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue a job at the simulation's current time.
  void submit(const Job& job);

  /// Pre-size the job queue and completion log for \p expected_jobs.
  void reserve(std::size_t expected_jobs);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double mean_service_time() const { return mean_service_; }
  [[nodiscard]] const std::vector<Completion>& completions() const {
    return completions_;
  }
  /// Jobs accepted but not yet started (excludes the one in service).
  [[nodiscard]] std::size_t queue_length() const {
    return queue_.size() - head_;
  }
  [[nodiscard]] bool busy() const { return busy_; }
  /// Total simulated time the server spent serving jobs.
  [[nodiscard]] double busy_time() const { return busy_time_; }

 private:
  void begin_service();

  Simulation* sim_;
  std::string name_;
  ServiceModel model_;
  double mean_service_;
  util::Rng rng_;

  std::vector<Job> queue_;  // FIFO; front at index head_
  std::size_t head_ = 0;
  bool busy_ = false;
  double busy_time_ = 0.0;
  std::vector<Completion> completions_;
};

}  // namespace lbmv::sim
