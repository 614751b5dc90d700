#include "lbmv/game/stackelberg.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/util/error.h"

namespace lbmv::game {
namespace {

/// A link observed by the followers after the leader preloaded it:
/// l'(x) = l(preload + x).
class ShiftedLatency final : public model::LatencyFunction {
 public:
  ShiftedLatency(const model::LatencyFunction& base, double preload)
      : base_(&base), preload_(preload) {
    LBMV_REQUIRE(preload >= 0.0, "preload must be non-negative");
  }
  [[nodiscard]] double latency(double x) const override {
    return base_->latency(preload_ + x);
  }
  [[nodiscard]] double latency_derivative(double x) const override {
    return base_->latency_derivative(preload_ + x);
  }
  [[nodiscard]] double max_rate() const override {
    return base_->max_rate() - preload_;
  }
  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "shifted(" << base_->describe() << ", +" << preload_ << ")";
    return os.str();
  }

 private:
  const model::LatencyFunction* base_;
  double preload_;
};

std::vector<double> leader_flow_for(
    std::span<const std::unique_ptr<model::LatencyFunction>> links,
    const model::Allocation& optimum, double budget,
    StackelbergStrategy strategy) {
  const std::size_t n = links.size();
  std::vector<double> leader(n, 0.0);
  if (budget <= 0.0) return leader;
  switch (strategy) {
    case StackelbergStrategy::kScale: {
      const double alpha = budget / optimum.total_rate();
      for (std::size_t i = 0; i < n; ++i) leader[i] = alpha * optimum[i];
      return leader;
    }
    case StackelbergStrategy::kLargestLatencyFirst: {
      // Fill links by decreasing latency *under the optimal flow*; the
      // followers will then gravitate to the low-latency links the leader
      // left alone.
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return links[a]->latency(optimum[a]) > links[b]->latency(optimum[b]);
      });
      double remaining = budget;
      for (std::size_t i : order) {
        const double take = std::min(remaining, optimum[i]);
        leader[i] = take;
        remaining -= take;
        if (remaining <= 0.0) break;
      }
      LBMV_ASSERT(remaining <= 1e-9 * budget,
                  "LLF failed to place the leader's budget");
      return leader;
    }
  }
  LBMV_ASSERT(false, "unknown Stackelberg strategy");
  return leader;
}

}  // namespace

StackelbergReport stackelberg(
    std::span<const std::unique_ptr<model::LatencyFunction>> links,
    double demand, double alpha, StackelbergStrategy strategy) {
  LBMV_REQUIRE(!links.empty(), "need at least one link");
  LBMV_REQUIRE(demand > 0.0, "demand must be positive");
  LBMV_REQUIRE(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0, 1]");

  StackelbergReport report;
  const model::Allocation optimum = alloc::convex_allocate(links, demand);
  report.optimal_latency = model::total_latency(optimum, links);
  report.selfish_latency = model::total_latency(
      wardrop_equilibrium(links, demand), links);

  const double leader_budget = alpha * demand;
  report.leader_flow = model::Allocation(
      leader_flow_for(links, optimum, leader_budget, strategy));

  const double follower_budget = demand - leader_budget;
  std::vector<double> follower(links.size(), 0.0);
  if (follower_budget > 1e-12 * demand) {
    std::vector<std::unique_ptr<model::LatencyFunction>> shifted;
    shifted.reserve(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
      shifted.push_back(std::make_unique<ShiftedLatency>(
          *links[i], report.leader_flow[i]));
    }
    const model::Allocation equilibrium =
        wardrop_equilibrium(shifted, follower_budget);
    for (std::size_t i = 0; i < links.size(); ++i) {
      follower[i] = equilibrium[i];
    }
  }
  report.follower_flow = model::Allocation(follower);

  std::vector<double> combined(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    combined[i] = report.leader_flow[i] + follower[i];
  }
  report.combined_flow = model::Allocation(std::move(combined));
  report.total_latency = model::total_latency(report.combined_flow, links);
  return report;
}

BidLeaderReport stackelberg_bidding(const core::Mechanism& mechanism,
                                    const model::SystemConfig& config,
                                    const BidLeaderOptions& options) {
  LBMV_REQUIRE(options.leader < config.size(),
               "leader index out of range");
  LBMV_REQUIRE(options.bid_grid >= 2, "bid_grid must be at least 2");
  LBMV_REQUIRE(std::isfinite(options.bid_lo_mult) &&
                   std::isfinite(options.bid_hi_mult),
               "commitment interval must be finite");
  LBMV_REQUIRE(options.bid_lo_mult > 0.0 &&
                   options.bid_lo_mult < options.bid_hi_mult,
               "commitment interval must satisfy 0 < lo < hi");

  const std::size_t leader = options.leader;
  const double t_leader = config.true_value(leader);

  // Log-spaced commitment candidates, with the exact truth appended so the
  // truthful-commitment baseline is always one of the evaluated points.
  std::vector<double> candidates = strategy::make_bid_grid(
      options.bid_lo_mult * t_leader, options.bid_hi_mult * t_leader,
      static_cast<std::size_t>(options.bid_grid),
      strategy::GridSpacing::kLog);
  candidates.push_back(t_leader);

  strategy::BestResponseOptions follower = options.follower;
  follower.frozen_agents = {leader};

  BidLeaderReport report;
  report.leader_candidates = static_cast<int>(candidates.size());
  report.optimal_latency =
      mechanism.run(config, model::BidProfile::truthful(config))
          .actual_latency;

  bool have_best = false;
  for (double commitment : candidates) {
    model::BidProfile initial = model::BidProfile::truthful(config);
    initial.bids[leader] = commitment;  // leader still executes at capacity
    const strategy::BestResponseResult equilibrium =
        strategy::best_response_dynamics(mechanism, config, initial, follower);

    model::BidProfile final_profile;
    final_profile.bids = equilibrium.final_bids;
    final_profile.executions = equilibrium.final_executions;
    const double utility =
        mechanism
            .make_profile_context(config.family(), config.arrival_rate(),
                                  final_profile)
            ->utility(leader, commitment, t_leader);

    if (commitment == t_leader) {
      report.truthful_commitment_utility = utility;
    }
    if (!have_best || utility > report.leader_utility) {
      have_best = true;
      report.leader_utility = utility;
      report.leader_bid = commitment;
      report.total_latency = equilibrium.final_actual_latency;
      report.follower_bids = equilibrium.final_bids;
    }
  }
  report.commitment_gain =
      report.leader_utility - report.truthful_commitment_utility;
  return report;
}

}  // namespace lbmv::game
