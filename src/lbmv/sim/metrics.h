#pragma once

/// \file metrics.h
/// Measurement of simulated latency against the analytic model.
///
/// The paper's total latency L(x) = sum_i x_i * l_i(x_i) interprets l_i as
/// the expected *waiting* time at computer i (the linear M/G/1 light-load
/// term has no constant part).  The simulated analogue replaces x_i by the
/// observed throughput and l_i by the mean observed waiting time.

#include <span>
#include <vector>

#include "lbmv/sim/server.h"
#include "lbmv/util/stats.h"

namespace lbmv::sim {

/// Per-server observation summary over a finished run.
struct ServerMetrics {
  std::size_t jobs_completed = 0;
  double throughput = 0.0;         ///< completions / duration
  double mean_waiting_time = 0.0;  ///< queueing delay before service
  double mean_service_time = 0.0;
  double mean_response_time = 0.0;
  double utilization = 0.0;        ///< busy_time / duration
  double waiting_ci95 = 0.0;       ///< CI half-width of the mean waiting time
};

/// Whole-system summary.
struct SystemMetrics {
  std::vector<ServerMetrics> servers;
  double duration = 0.0;
  /// Measured analogue of L(x): sum_i throughput_i * mean_waiting_i.
  double measured_total_latency = 0.0;

  [[nodiscard]] std::size_t total_jobs() const;
};

/// Summarise per-server completion planes after a run of \p duration
/// simulated seconds: server i completed \p completions[i] and was busy
/// \p busy_time[i] seconds.  Jobs arriving within the first
/// \p warmup_fraction * duration are discarded as transient.
[[nodiscard]] SystemMetrics collect_metrics(
    std::span<const std::span<const Completion>> completions,
    std::span<const double> busy_time, double duration,
    double warmup_fraction = 0.1);

/// The same summary read from a set of drained servers.
[[nodiscard]] SystemMetrics collect_metrics(std::span<Server* const> servers,
                                            double duration,
                                            double warmup_fraction = 0.1);

}  // namespace lbmv::sim
