#include "lbmv/sim/job_source.h"

#include <cmath>
#include <string>
#include <utility>

#include "lbmv/util/error.h"

namespace lbmv::sim {

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
  for (std::size_t i = 0; i < rates_.size(); ++i) {
    LBMV_REQUIRE(servers_[i] != nullptr, "servers must not be null");
    // An infinite rate draws zero-length gaps: the arrivals never pass the
    // horizon.
    LBMV_REQUIRE(std::isfinite(rates_[i]) && rates_[i] >= 0.0,
                 "rates[" + std::to_string(i) +
                     "] must be finite and non-negative");
    total_rate_ += rates_[i];
  }
  LBMV_REQUIRE(std::isfinite(total_rate_) && total_rate_ > 0.0,
               "total arrival rate must be finite and positive");
  LBMV_REQUIRE(std::isfinite(horizon_) && horizon_ > 0.0,
               "horizon must be finite and positive");
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
