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
/// recursion's event-driven differential oracle (test_protocol).
///
/// Hot-path design: the server is an EventSink — service completions are
/// typed events, and the in-service job's (id, arrival, start, duration)
/// live in server members rather than a per-event closure capture, so a
/// steady-state run allocates nothing per job.  The job queue and the
/// completion log are flat per-server arenas (reserve() pre-sizes them,
/// reset() recycles them across replications without freeing).
///
/// Observability: the per-server arrival and completion counters and the
/// waiting-time histogram are not touched per job.  They are published from
/// the completion arena the server keeps anyway, every
/// kObsPublishCompletions completions, in reset() and on destruction, so a
/// scraper sees the completion families fewer than that many completions
/// behind a running server, and every family exactly once the server is
/// reset or gone.  Arrivals are counted as the jobs the server holds
/// (completed, queued or in service) since its last reset, so between
/// publications the arrival counter also misses the jobs queued since.

#include <cstdint>
#include <string>
#include <vector>

#include "lbmv/obs/metrics.h"
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
class Server final : public EventSink {
 public:
  /// \p execution_value is the linear coefficient t~ the server actually
  /// runs at; the mean service time is derived per \p model.
  Server(Simulation& sim, std::string name, double execution_value,
         ServiceModel model, util::Rng rng);
  /// Publishes the completions not yet counted (see "Observability").
  ~Server();
  // Scheduled completion events carry this server's address, so it can
  // be neither copied nor moved.
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Completions between two publications of the per-server probes.
  static constexpr std::size_t kObsPublishCompletions = 1024;

  /// Enqueue a job at the simulation's current time.
  void submit(const Job& job);

  /// Typed-event entry point: fires when the in-service job completes.
  void on_sim_event(Simulation& sim, EventKind kind) override;

  /// Pre-size the job queue and completion arena for \p expected_jobs so a
  /// run of that length allocates nothing per event.
  void reserve(std::size_t expected_jobs);

  /// Forget all queued jobs, completions and accounting, keeping arena
  /// capacity, after publishing the probes.  The RNG stream is NOT
  /// rewound; pass a fresh stream per replication instead.
  void reset();

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double execution_value() const { return execution_value_; }
  [[nodiscard]] ServiceModel model() const { return model_; }
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
  /// Publish the arrivals and completions since the last publication.
  /// Does nothing while recording is off.
  void publish_obs();

  Simulation* sim_;
  std::string name_;
  double execution_value_;
  ServiceModel model_;
  double mean_service_;
  util::Rng rng_;

  std::vector<Job> queue_;  // FIFO; front at index head_
  std::size_t head_ = 0;
  bool busy_ = false;
  double busy_time_ = 0.0;
  // The one job in service: FCFS single-server, so members (not a per-event
  // closure capture) are enough to describe the pending completion.
  Job in_service_{};
  SimTime service_start_ = 0.0;
  double service_duration_ = 0.0;
  std::vector<Completion> completions_;

  // Per-server metric handles, resolved once at construction (inert
  // defaults when recording is off at that point; see server.cpp), and the
  // publication cursor: completions_[0, obs_published_) and
  // obs_arrivals_published_ arrivals are already counted.
  bool obs_live_ = false;
  obs::Counter obs_arrivals_;
  obs::Counter obs_completions_;
  obs::Histogram obs_waiting_;
  std::size_t obs_published_ = 0;
  std::size_t obs_arrivals_published_ = 0;
};

}  // namespace lbmv::sim
