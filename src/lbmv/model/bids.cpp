#include "lbmv/model/bids.h"

#include <limits>
#include <string>

#include "lbmv/util/error.h"

namespace lbmv::model {

namespace {

[[noreturn]] void throw_invalid_value(const char* what, std::size_t agent) {
  throw util::PreconditionError(std::string(what) +
                                " must be positive and finite (agent " +
                                std::to_string(agent) + ")");
}

}  // namespace

void require_valid_values(std::span<const double> bids,
                          std::span<const double> executions) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // One branch-free pass (it vectorizes) decides; only a failing profile
  // pays for the second pass that names the culprit.  NaN fails every
  // ordered compare.
  bool ok = true;
  for (std::size_t i = 0; i < bids.size(); ++i) {
    ok &= (bids[i] > 0.0) & (bids[i] < kInf) & (executions[i] > 0.0) &
          (executions[i] < kInf);
  }
  if (ok) return;
  for (std::size_t i = 0; i < bids.size(); ++i) {
    if (!(bids[i] > 0.0 && bids[i] < kInf)) throw_invalid_value("bids", i);
    if (!(executions[i] > 0.0 && executions[i] < kInf)) {
      throw_invalid_value("execution values", i);
    }
  }
}

void throw_invalid_deviation(std::size_t agent, std::size_t n, double bid,
                             double execution) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LBMV_REQUIRE(agent < n, "agent index out of range");
  if (!(bid > 0.0 && bid < kInf)) throw_invalid_value("bids", agent);
  LBMV_ASSERT(!(execution > 0.0 && execution < kInf),
              "throw_invalid_deviation called on a valid deviation");
  throw_invalid_value("execution values", agent);
}

void require_valid_round(double arrival_rate, std::span<const double> bids,
                         std::span<const double> executions) {
  require_valid_values(bids, executions);
  LBMV_REQUIRE(arrival_rate > 0.0 &&
                   arrival_rate < std::numeric_limits<double>::infinity(),
               "arrival rate must be positive and finite");
}

BidProfile BidProfile::truthful(const SystemConfig& config) {
  BidProfile profile;
  profile.bids.assign(config.true_values().begin(),
                      config.true_values().end());
  profile.executions = profile.bids;
  return profile;
}

BidProfile BidProfile::deviate(const SystemConfig& config, std::size_t i,
                               double bid_mult, double exec_mult) {
  LBMV_REQUIRE(i < config.size(), "agent index out of range");
  LBMV_REQUIRE(bid_mult > 0.0 && exec_mult > 0.0,
               "deviation multipliers must be positive");
  BidProfile profile = truthful(config);
  profile.bids[i] = config.true_value(i) * bid_mult;
  profile.executions[i] = config.true_value(i) * exec_mult;
  return profile;
}

BidProfile BidProfile::without(std::size_t i) const {
  BidProfile rest;
  copy_without_into(i, rest);
  return rest;
}

void BidProfile::copy_without_into(std::size_t i, BidProfile& scratch) const {
  LBMV_REQUIRE(i < bids.size(), "agent index out of range");
  scratch.bids.clear();
  scratch.executions.clear();
  scratch.bids.reserve(bids.size() - 1);
  scratch.executions.reserve(executions.size() - 1);
  for (std::size_t j = 0; j < bids.size(); ++j) {
    if (j == i) continue;
    scratch.bids.push_back(bids[j]);
    scratch.executions.push_back(executions[j]);
  }
}

void BidProfile::validate(std::size_t n) const {
  LBMV_REQUIRE(bids.size() == n, "bid vector size mismatch");
  LBMV_REQUIRE(executions.size() == n, "execution vector size mismatch");
  require_valid_values(bids, executions);
}

bool BidProfile::executions_respect_capacity(const SystemConfig& config,
                                             double tol) const {
  if (executions.size() != config.size()) return false;
  for (std::size_t i = 0; i < executions.size(); ++i) {
    if (executions[i] + tol < config.true_value(i)) return false;
  }
  return true;
}

}  // namespace lbmv::model
