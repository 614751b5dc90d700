#include "lbmv/strategy/strategy.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lbmv/util/error.h"

namespace lbmv::strategy {

double TruthfulStrategy::bid(double true_value, util::Rng&) const {
  return true_value;
}

double TruthfulStrategy::execution(double true_value, double,
                                   util::Rng&) const {
  return true_value;
}

ScalingStrategy::ScalingStrategy(double bid_mult, double exec_mult)
    : bid_mult_(bid_mult), exec_mult_(std::max(1.0, exec_mult)) {
  LBMV_REQUIRE(bid_mult > 0.0, "bid multiplier must be positive");
  LBMV_REQUIRE(exec_mult > 0.0, "execution multiplier must be positive");
}

double ScalingStrategy::bid(double true_value, util::Rng&) const {
  return bid_mult_ * true_value;
}

double ScalingStrategy::execution(double true_value, double,
                                  util::Rng&) const {
  return exec_mult_ * true_value;
}

std::string ScalingStrategy::name() const {
  std::ostringstream os;
  os << "scaling(bid=" << bid_mult_ << "x, exec=" << exec_mult_ << "x)";
  return os.str();
}

RandomBidStrategy::RandomBidStrategy(double lo_mult, double hi_mult)
    : lo_mult_(lo_mult), hi_mult_(hi_mult) {
  LBMV_REQUIRE(0.0 < lo_mult && lo_mult < hi_mult,
               "random bid range must satisfy 0 < lo < hi");
}

double RandomBidStrategy::bid(double true_value, util::Rng& rng) const {
  const double u = rng.uniform(std::log(lo_mult_), std::log(hi_mult_));
  return true_value * std::exp(u);
}

double RandomBidStrategy::execution(double true_value, double,
                                    util::Rng&) const {
  return true_value;
}

std::string RandomBidStrategy::name() const {
  std::ostringstream os;
  os << "random-bid[" << lo_mult_ << "x, " << hi_mult_ << "x]";
  return os.str();
}

SlackExecutionStrategy::SlackExecutionStrategy(double exec_mult)
    : exec_mult_(exec_mult) {
  LBMV_REQUIRE(exec_mult >= 1.0, "slack multiplier must be >= 1");
}

double SlackExecutionStrategy::bid(double true_value, util::Rng&) const {
  return true_value;
}

double SlackExecutionStrategy::execution(double true_value, double,
                                         util::Rng&) const {
  return exec_mult_ * true_value;
}

std::string SlackExecutionStrategy::name() const {
  std::ostringstream os;
  os << "slack-exec(" << exec_mult_ << "x)";
  return os.str();
}

model::BidProfile apply_strategies(
    const model::SystemConfig& config,
    const std::vector<const Strategy*>& strategies, util::Rng& rng) {
  LBMV_REQUIRE(strategies.size() == config.size(),
               "one strategy per agent required");
  model::BidProfile profile;
  profile.bids.resize(config.size());
  profile.executions.resize(config.size());
  for (std::size_t i = 0; i < config.size(); ++i) {
    LBMV_REQUIRE(strategies[i] != nullptr, "strategies must not be null");
    const double t = config.true_value(i);
    profile.bids[i] = strategies[i]->bid(t, rng);
    profile.executions[i] = strategies[i]->execution(t, profile.bids[i], rng);
    LBMV_ASSERT(profile.executions[i] >= t,
                "strategy produced an execution value below capacity");
  }
  return profile;
}

}  // namespace lbmv::strategy
