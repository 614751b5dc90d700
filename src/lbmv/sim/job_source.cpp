#include "lbmv/sim/job_source.h"

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "lbmv/util/error.h"

namespace lbmv::sim {

double checked_total_rate(std::span<const double> rates, SimTime horizon) {
  double total_rate = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    LBMV_REQUIRE(std::isfinite(rates[i]) && rates[i] >= 0.0,
                 "rates[" + std::to_string(i) +
                     "] must be finite and non-negative");
    total_rate += rates[i];
  }
  LBMV_REQUIRE(std::isfinite(total_rate) && total_rate > 0.0,
               "total arrival rate must be finite and positive");
  LBMV_REQUIRE(std::isfinite(horizon) && horizon > 0.0,
               "horizon must be finite and positive");
  const double expected_jobs = total_rate * horizon;
  if (!(expected_jobs <= kMaxExpectedJobs)) {
    std::ostringstream os;
    os << "expected job count sum(rates) * horizon = " << expected_jobs
       << " exceeds the limit of " << kMaxExpectedJobs << " jobs";
    throw util::PreconditionError(os.str());
  }
  return total_rate;
}

JobSource::JobSource(Simulation& sim, std::span<Server* const> servers,
                     std::vector<double> rates, SimTime horizon,
                     util::Rng rng)
    : sim_(&sim),
      servers_(servers.begin(), servers.end()),
      rates_(std::move(rates)),
      total_rate_(0.0),
      horizon_(horizon),
      rng_(rng),
      counts_(servers_.size(), 0) {
  LBMV_REQUIRE(!servers_.empty(), "job source needs at least one server");
  LBMV_REQUIRE(rates_.size() == servers_.size(),
               "one rate per server required");
  for (const Server* server : servers_) {
    LBMV_REQUIRE(server != nullptr, "servers must not be null");
  }
  total_rate_ = checked_total_rate(rates_, horizon_);
}

void JobSource::start() {
  sim_->schedule_after(rng_.exponential(total_rate_), [this] { arrival(); });
}

void JobSource::arrival() {
  if (sim_->now() > horizon_) return;  // stop generating past the horizon
  const std::size_t target = rng_.categorical(rates_);
  ++counts_[target];
  servers_[target]->submit(Job{next_job_id_++, sim_->now()});
  sim_->schedule_after(rng_.exponential(total_rate_), [this] { arrival(); });
}

}  // namespace lbmv::sim
