#pragma once

/// \file best_response.h
/// Iterated best-response dynamics.
///
/// Truthfulness is a *dominant strategy* property: no matter what the other
/// agents do, an agent can do no better than the truth.  A complementary,
/// behavioural check is to let boundedly-rational agents repeatedly optimise
/// their bid (and execution value) against the current profile:
///   * under the compensation-and-bonus mechanism the dynamics must settle
///     on (approximately) truthful bids and full-capacity execution;
///   * under the no-payment baseline every agent keeps inflating its bid to
///     dodge work and the total latency degrades — the paper's motivation,
///     quantified (ablation bench A5).

#include <cstddef>
#include <vector>

#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"

namespace lbmv::strategy {

/// Tunables for the dynamics.
struct BestResponseOptions {
  int max_rounds = 60;          ///< full passes over the agents
  double tol = 1e-5;            ///< relative bid movement to call converged
  double bid_lo_mult = 0.05;    ///< bid search interval, x true value
  double bid_hi_mult = 20.0;
  int bid_grid = 96;            ///< coarse scan resolution before refinement
  bool optimize_execution = true;  ///< also search over execution values
  /// Candidate execution multipliers (>= 1) tried for each bid.
  std::vector<double> exec_multipliers{1.0, 1.25, 1.5, 2.0, 3.0};
  /// Agents that never revise their action (e.g. a committed leader in the
  /// Stackelberg bidding game).  Indices must be < config.size().
  std::vector<std::size_t> frozen_agents{};
  /// Evaluate deviations through the mechanism's profile context (its O(1)
  /// closed form where the family has one); set false to force the
  /// reference context, one mechanism run per deviation (baseline
  /// measurements, differential tests).
  bool use_incremental = true;
};

/// Trace of one dynamics run.
struct BestResponseResult {
  std::vector<std::vector<double>> bid_trajectory;  ///< bids after each round
  std::vector<double> final_bids;
  std::vector<double> final_executions;
  int rounds = 0;
  bool converged = false;
  double final_actual_latency = 0.0;  ///< L at the final profile
  /// max_i |b_i - t_i| / t_i at the end: 0 means full truth-telling.
  double max_relative_untruthfulness = 0.0;
};

/// Run sequential (round-robin) best-response dynamics from the truthful
/// profile.  Each agent maximises its own mechanism utility by a coarse
/// scan + golden-section refinement over bids, for each candidate
/// execution multiplier.  Deviations are evaluated through one
/// core::ProfileUtilityContext (Mechanism::make_profile_context): O(1) per
/// grid point for the closed-form mechanisms, one mechanism run otherwise.
[[nodiscard]] BestResponseResult best_response_dynamics(
    const core::Mechanism& mechanism, const model::SystemConfig& config,
    const BestResponseOptions& options = {});

/// Same dynamics, started from an arbitrary \p initial profile (must
/// validate against \p config) — the Stackelberg bidding game uses this to
/// seed the followers around a committed leader bid.
[[nodiscard]] BestResponseResult best_response_dynamics(
    const core::Mechanism& mechanism, const model::SystemConfig& config,
    const model::BidProfile& initial, const BestResponseOptions& options);

}  // namespace lbmv::strategy
