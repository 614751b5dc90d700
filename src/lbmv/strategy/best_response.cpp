#include "lbmv/strategy/best_response.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "lbmv/obs/probes.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/util/error.h"
#include "lbmv/util/roots.h"

namespace lbmv::strategy {
namespace {

void validate_options(const model::SystemConfig& config,
                      const BestResponseOptions& options) {
  LBMV_REQUIRE(options.max_rounds > 0, "max_rounds must be positive");
  LBMV_REQUIRE(std::isfinite(options.tol) && options.tol >= 0.0,
               "tol must be finite and non-negative");
  LBMV_REQUIRE(std::isfinite(options.bid_lo_mult) &&
                   std::isfinite(options.bid_hi_mult),
               "bid search interval must be finite");
  LBMV_REQUIRE(options.bid_lo_mult > 0.0 &&
                   options.bid_lo_mult < options.bid_hi_mult,
               "bid search interval must satisfy 0 < lo < hi");
  LBMV_REQUIRE(options.bid_grid >= 2, "bid_grid must be at least 2");
  LBMV_REQUIRE(!options.exec_multipliers.empty(),
               "exec_multipliers must be non-empty");
  for (double em : options.exec_multipliers) {
    LBMV_REQUIRE(std::isfinite(em) && em >= 1.0,
                 "execution multipliers must be finite and >= 1");
  }
  for (std::size_t frozen : options.frozen_agents) {
    LBMV_REQUIRE(frozen < config.size(),
                 "frozen agent index out of range");
  }
}

}  // namespace

BestResponseResult best_response_dynamics(const core::Mechanism& mechanism,
                                          const model::SystemConfig& config,
                                          const model::BidProfile& initial,
                                          const BestResponseOptions& options) {
  validate_options(config, options);
  initial.validate(config.size());

  const std::unique_ptr<core::ProfileUtilityContext> context =
      options.use_incremental
          ? mechanism.make_profile_context(config.family(),
                                           config.arrival_rate(), initial)
          : mechanism.make_reference_context(config.family(),
                                             config.arrival_rate(), initial);
  const model::BidProfile& profile = context->profile();
  std::vector<double> bid_grid;
  std::vector<char> frozen(config.size(), 0);
  for (std::size_t i : options.frozen_agents) frozen[i] = 1;

  BestResponseResult result;
  for (int round = 0; round < options.max_rounds; ++round) {
    const auto round_start = std::chrono::steady_clock::now();
    double max_move = 0.0;
    for (std::size_t i = 0; i < config.size(); ++i) {
      if (frozen[i] != 0) continue;
      const double t = config.true_value(i);
      const double lo = options.bid_lo_mult * t;
      const double hi = options.bid_hi_mult * t;

      double best_bid = profile.bids[i];
      double best_exec = profile.executions[i];
      double best_utility = context->utility(i, best_bid, best_exec);

      // Same candidate points as util::minimize_scan's coarse pass, swept
      // four lanes per instruction; the scan's strictly-greater first-wins
      // argmax and its golden-section refinement (scalar, around the
      // winning cell) are reproduced exactly, so the dynamics are
      // bit-identical to the pre-vectorized path.
      make_bid_grid_into(lo, hi, static_cast<std::size_t>(options.bid_grid),
                         GridSpacing::kLinear, bid_grid);
      const double step =
          (hi - lo) / static_cast<double>(options.bid_grid - 1);

      const std::vector<double> exec_candidates =
          options.optimize_execution ? options.exec_multipliers
                                     : std::vector<double>{1.0};
      for (double em : exec_candidates) {
        const double exec = em * t;
        const auto coarse = context->best_response(i, bid_grid, exec);
        const double coarse_bid = bid_grid[coarse.index];
        const auto refined = util::golden_section_min(
            [&](double bid) { return -context->utility(i, bid, exec); },
            std::max(lo, coarse_bid - step), std::min(hi, coarse_bid + step),
            1e-9 * t);
        double utility = coarse.utility;
        double bid = coarse_bid;
        if (refined.fx <= -coarse.utility) {
          utility = -refined.fx;
          bid = refined.x;
        }
        if (utility > best_utility + 1e-12) {
          best_utility = utility;
          best_bid = bid;
          best_exec = exec;
        }
      }
      max_move = std::max(max_move, std::fabs(best_bid - profile.bids[i]) / t);
      context->commit(i, best_bid, best_exec);
    }
    result.bid_trajectory.push_back(profile.bids);
    result.rounds = round + 1;
    if (obs::enabled()) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - round_start;
      obs::StrategyProbes::get().round_seconds.record(elapsed.count());
    }
    if (max_move <= options.tol) {
      result.converged = true;
      break;
    }
  }

  result.final_bids = profile.bids;
  result.final_executions = profile.executions;
  result.final_actual_latency = mechanism.run(config, profile).actual_latency;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const double t = config.true_value(i);
    result.max_relative_untruthfulness =
        std::max(result.max_relative_untruthfulness,
                 std::fabs(profile.bids[i] - t) / t);
  }
  return result;
}

BestResponseResult best_response_dynamics(const core::Mechanism& mechanism,
                                          const model::SystemConfig& config,
                                          const BestResponseOptions& options) {
  return best_response_dynamics(mechanism, config,
                                model::BidProfile::truthful(config), options);
}

}  // namespace lbmv::strategy
