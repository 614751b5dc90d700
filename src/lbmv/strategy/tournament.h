#pragma once

/// \file tournament.h
/// Strategy tournaments over random system instances.
///
/// Each instance draws random true values, assigns strategies to agents
/// round-robin, runs the mechanism once and records per-strategy utility
/// together with the *regret* against the truthful counterfactual (replace
/// the agent's action with the truth, everything else fixed).  Under a
/// truthful mechanism every strategy's mean regret is >= 0 and exactly 0
/// only for the truthful strategy; under broken baselines profitable lies
/// show up as negative regret.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/core/mechanism.h"
#include "lbmv/strategy/strategy.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::strategy {

/// Tournament tunables.
struct TournamentOptions {
  int instances = 64;          ///< random systems to draw
  std::size_t agents = 8;      ///< computers per system
  double arrival_rate = 20.0;
  double type_lo = 0.5;        ///< true values drawn log-uniformly in
  double type_hi = 10.0;       ///< [type_lo, type_hi]
  std::uint64_t seed = 7;
  /// The pool the instances run on (nullptr: the global pool).  Instance k
  /// depends only on the seed stream split(k) and per-instance results are
  /// merged in instance order, so scores are bit-identical for any thread
  /// count; a one-thread pool is the serial run.
  util::ThreadPool* pool = nullptr;
};

/// Aggregate score of one strategy across the tournament.
struct StrategyScore {
  std::string name;
  double mean_utility = 0.0;
  /// mean(truthful counterfactual utility - achieved utility): positive
  /// means lying cost the agent money on average.
  double mean_regret = 0.0;
  /// mean(best grid-candidate bid utility - achieved utility) at the
  /// agent's committed execution: how much a unilateral bid re-optimisation
  /// (one lane-parallel sweep of 48 strategy::make_bid_grid candidates
  /// between 0.05 t and 20 t) would have gained.  ~0 for a
  /// best-responding strategy; can be marginally negative when the grid
  /// misses the committed bid.
  double mean_best_response_gain = 0.0;
  std::size_t samples = 0;
};

/// Run the tournament; scores align with \p strategies.
[[nodiscard]] std::vector<StrategyScore> run_tournament(
    const core::Mechanism& mechanism,
    const std::vector<const Strategy*>& strategies,
    const TournamentOptions& options = {});

}  // namespace lbmv::strategy
