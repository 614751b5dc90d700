#pragma once

/// \file stackelberg.h
/// Stackelberg scheduling on parallel links (Roughgarden, STOC'01 — the
/// paper's reference [19]).
///
/// A leader controls a fraction alpha of the demand and commits its flow
/// first; the remaining (1 - alpha) routes selfishly to a Wardrop
/// equilibrium *given* the leader's preload.  Good leader strategies push
/// the combined flow toward the optimum:
///   * kScale       — the optimal flow scaled by alpha (simple baseline);
///   * kLargestLatencyFirst (LLF) — Roughgarden's strategy: saturate the
///     links the optimum loads most heavily (largest optimal latency)
///     first, leaving the attractive links for the selfish followers.
/// At alpha = 0 this degrades to plain selfish routing; at alpha = 1 the
/// leader implements the optimum.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "lbmv/core/mechanism.h"
#include "lbmv/game/wardrop.h"
#include "lbmv/model/system_config.h"
#include "lbmv/strategy/best_response.h"

namespace lbmv::game {

/// Leader strategies.
enum class StackelbergStrategy {
  kScale,               ///< alpha * optimal flow
  kLargestLatencyFirst, ///< fill links by decreasing optimal latency
};

/// Outcome of a Stackelberg game.
struct StackelbergReport {
  model::Allocation leader_flow;
  model::Allocation follower_flow;
  model::Allocation combined_flow;
  double total_latency = 0.0;     ///< L(combined)
  double optimal_latency = 0.0;   ///< unconstrained optimum
  double selfish_latency = 0.0;   ///< alpha = 0 equilibrium
  /// total / optimal in [1, PoA]; 1 means the leader fixed everything.
  [[nodiscard]] double inefficiency() const {
    return total_latency / optimal_latency;
  }
};

/// Play the game: leader commits per \p strategy with demand share
/// \p alpha in [0, 1]; followers equilibrate on the preloaded links.
/// Requires strictly increasing latencies (see wardrop.h).
[[nodiscard]] StackelbergReport stackelberg(
    std::span<const std::unique_ptr<model::LatencyFunction>> links,
    double demand, double alpha,
    StackelbergStrategy strategy = StackelbergStrategy::kLargestLatencyFirst);

/// Tunables for the mechanism-layer leader-commitment (Stackelberg bidding)
/// game below.
struct BidLeaderOptions {
  std::size_t leader = 0;     ///< index of the committing agent
  int bid_grid = 17;          ///< leader commitment candidates (log-spaced)
  double bid_lo_mult = 0.25;  ///< candidate interval, x leader's true value
  double bid_hi_mult = 4.0;
  /// Follower best-response tunables; frozen_agents is overwritten with
  /// {leader} internally.
  strategy::BestResponseOptions follower{};
};

/// Outcome of the bidding game.
struct BidLeaderReport {
  double leader_bid = 0.0;      ///< best commitment found
  double leader_utility = 0.0;  ///< leader's utility at that commitment
  /// Leader's utility when it commits to the truth (followers respond).
  double truthful_commitment_utility = 0.0;
  /// leader_utility - truthful_commitment_utility: the first-mover
  /// advantage.  Dominant-strategy truthfulness does NOT make this zero:
  /// an inflated commitment (bid > execution) makes the followers' own
  /// best responses inflate in proportion, and the whole profile scales
  /// up.  Under comp-bonus the PR allocation is invariant to that common
  /// scaling — total latency stays at the optimum and only the transfers
  /// grow — while under no-payment the leader's gain comes with a real
  /// latency degradation.  See test_stackelberg.cpp.
  double commitment_gain = 0.0;
  double total_latency = 0.0;    ///< L at the equilibrium under the best bid
  double optimal_latency = 0.0;  ///< L* at the truthful profile
  std::vector<double> follower_bids;  ///< equilibrium bids (leader included)
  int leader_candidates = 0;          ///< commitments evaluated
};

/// Mechanism-layer Stackelberg game: agent \p options.leader commits to a
/// bid first (executing at capacity), then the remaining agents run
/// best-response dynamics with the leader frozen; the leader picks the
/// commitment with the best equilibrium utility over a log-spaced grid that
/// always includes its true value.  The followers' dynamics and the
/// leader's utility read the mechanism's profile context
/// (Mechanism::make_profile_context), so each (commitment, follower-round)
/// pair costs O(n * grid) closed-form evaluations rather than mechanism
/// runs.
[[nodiscard]] BidLeaderReport stackelberg_bidding(
    const core::Mechanism& mechanism, const model::SystemConfig& config,
    const BidLeaderOptions& options = {});

}  // namespace lbmv::game
