#include "lbmv/core/delta_engine.h"

#include <utility>

#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

DeltaRoundEngine::DeltaRoundEngine(
    const Mechanism& mechanism,
    std::shared_ptr<const model::LatencyFamily> family, double arrival_rate,
    const model::BidProfile& initial)
    : mechanism_(&mechanism),
      family_(std::move(family)),
      arrival_rate_(arrival_rate),
      bids_(initial.bids),
      execs_(initial.executions) {
  LBMV_REQUIRE(family_ != nullptr, "delta engine requires a latency family");
}

std::size_t DeltaRoundEngine::sync(std::span<const double> bids,
                                   std::span<const double> executions) {
  const std::size_t n = bids_.size();
  LBMV_REQUIRE(bids.size() == n, "sync requires an unchanged agent count");
  LBMV_REQUIRE(executions.size() == n && execs_.size() == n,
               "execution vector size mismatch");
  std::size_t dirty = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (bids[j] == bids_[j] && executions[j] == execs_[j]) continue;
    bids_[j] = bids[j];
    execs_[j] = executions[j];
    ++dirty;
  }
  if (dirty == 0) return 0;
  outcome_valid_ = false;
  if (obs::enabled()) {
    obs::CoreProbes& probes = obs::CoreProbes::get();
    probes.delta_rounds.inc();
    probes.dirty_agents.record(static_cast<double>(dirty));
  }
  return dirty;
}

const MechanismOutcome& DeltaRoundEngine::outcome() {
  if (!outcome_valid_) {
    mechanism_->run_into(*family_, arrival_rate_, bids_, execs_, outcome_,
                         ws_);
    outcome_valid_ = true;
  }
  return outcome_;
}

}  // namespace lbmv::core
