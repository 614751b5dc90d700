#include "lbmv/sim/metrics.h"

#include <cmath>

#include "lbmv/util/error.h"

namespace lbmv::sim {

std::size_t SystemMetrics::total_jobs() const {
  std::size_t total = 0;
  for (const auto& s : servers) total += s.jobs_completed;
  return total;
}

SystemMetrics collect_metrics(
    std::span<const std::span<const Completion>> completions,
    std::span<const double> busy_time, double duration,
    double warmup_fraction) {
  // A non-finite duration (or a NaN warmup fraction, which passes neither
  // comparison below) would silently yield zero/NaN throughput for every
  // server; reject it here instead.
  LBMV_REQUIRE(std::isfinite(duration) && duration > 0.0,
               "duration must be finite and positive");
  LBMV_REQUIRE(std::isfinite(warmup_fraction) && warmup_fraction >= 0.0 &&
                   warmup_fraction < 1.0,
               "warmup fraction must be finite and in [0, 1)");
  LBMV_REQUIRE(busy_time.size() == completions.size(),
               "one busy time per server required");
  SystemMetrics metrics;
  metrics.duration = duration;
  const double warmup = warmup_fraction * duration;
  const double window = duration - warmup;

  metrics.servers.reserve(completions.size());
  for (std::size_t i = 0; i < completions.size(); ++i) {
    ServerMetrics sm;
    util::RunningStats waiting, service, response;
    for (const Completion& c : completions[i]) {
      if (c.arrival < warmup) continue;
      waiting.add(c.waiting_time());
      service.add(c.service_time());
      response.add(c.response_time());
    }
    sm.jobs_completed = waiting.count();
    sm.throughput = static_cast<double>(sm.jobs_completed) / window;
    sm.mean_waiting_time = waiting.mean();
    sm.mean_service_time = service.mean();
    sm.mean_response_time = response.mean();
    sm.utilization = busy_time[i] / duration;
    sm.waiting_ci95 = waiting.ci95_halfwidth();
    metrics.measured_total_latency += sm.throughput * sm.mean_waiting_time;
    metrics.servers.push_back(sm);
  }
  return metrics;
}

SystemMetrics collect_metrics(std::span<Server* const> servers,
                              double duration, double warmup_fraction) {
  std::vector<std::span<const Completion>> completions;
  std::vector<double> busy_time;
  completions.reserve(servers.size());
  busy_time.reserve(servers.size());
  for (const Server* server : servers) {
    LBMV_REQUIRE(server != nullptr, "servers must not be null");
    completions.emplace_back(server->completions());
    busy_time.push_back(server->busy_time());
  }
  return collect_metrics(completions, busy_time, duration, warmup_fraction);
}

}  // namespace lbmv::sim
