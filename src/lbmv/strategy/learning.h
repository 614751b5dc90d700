#pragma once

/// \file learning.h
/// Bandit learners: do agents *discover* truth-telling from experience?
///
/// The audits (lbmv/core/audit.h) certify truthfulness by exhaustive
/// enumeration, and best_response.h by exact optimisation.  A third, weaker
/// but more behaviourally plausible check: agents that know nothing about
/// the mechanism and just run epsilon-greedy bandits over a grid of
/// (bid multiplier, execution multiplier) arms.  Under the verified
/// mechanism the greedy arm drifts to (1, 1) and the system latency to the
/// optimum; under the no-payment protocol the learners discover bid
/// inflation instead.

#include <cstdint>
#include <optional>
#include <vector>

#include "lbmv/core/mechanism.h"
#include "lbmv/model/system_config.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::strategy {

/// Grid and schedule for the learners.
struct LearningOptions {
  /// Candidate bid multipliers (arms are the cross product with exec).
  std::vector<double> bid_arms{0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
  /// Candidate execution multipliers (>= 1).
  std::vector<double> exec_arms{1.0, 1.5, 2.0};
  int rounds = 600;
  double epsilon = 0.2;          ///< initial exploration probability
  double epsilon_decay = 0.995;  ///< multiplicative per-round decay
  std::uint64_t seed = 5;
  /// If set, only this agent learns; everyone else plays truthfully.
  /// (Against truthful opponents truth is exactly dominant, so the single
  /// learner must converge to the (1, 1) arm.)
  std::optional<std::size_t> single_learner;
  /// Full-feedback (counterfactual) updates: instead of crediting only the
  /// pulled arm with its realised utility, every arm's Q is updated each
  /// round with the agent's counterfactual deviation utility at that arm —
  /// one candidate-bid sweep per execution arm through the mechanism's
  /// profile context (ProfileUtilityContext::utilities_into), so the whole
  /// arm grid costs a handful of 4-lane sweeps rather than |arms|
  /// mechanism runs.
  /// Convergence to the dominant arm no longer depends on exploration luck.
  bool full_feedback = false;
};

/// Outcome of a learning run.
struct LearningResult {
  std::vector<double> final_bid_mult;   ///< greedy arm per agent
  std::vector<double> final_exec_mult;
  std::vector<double> latency_trace;    ///< actual L per round
  double final_greedy_latency = 0.0;    ///< L when all play greedy arms
  double truthful_fraction = 0.0;       ///< share of agents at (1, 1)
};

/// Run epsilon-greedy bandits over mechanism rounds.  One profile context
/// holds the committed profile: each round commits the learners' moves to
/// it as one batch and reads its outcome from one Mechanism::run_into on
/// the context's profile and a reused workspace (the fused engine wherever
/// the family has one), with no per-round profile or latency-curve
/// allocations.  Only full feedback builds the closed-form context
/// (Mechanism::make_profile_context); partial feedback reads nothing but
/// the round itself, so it holds the reference context, whose commits only
/// write the profile.
[[nodiscard]] LearningResult run_learning(const core::Mechanism& mechanism,
                                          const model::SystemConfig& config,
                                          const LearningOptions& options = {});

/// Independent learning runs aggregated across replications.
struct LearningEnsemble {
  std::vector<LearningResult> replications;  ///< in replication order

  [[nodiscard]] double mean_truthful_fraction() const;
  [[nodiscard]] double mean_greedy_latency() const;
};

/// Run \p replications independent learning runs in parallel on \p pool
/// (nullptr: the global pool).  Replication r uses the seed stream
/// Rng(options.seed).split(r + 1), and results are merged in replication
/// order, so the ensemble is bit-identical for any thread count — the same
/// discipline as sim::ReplicationRunner.
[[nodiscard]] LearningEnsemble run_learning_replicated(
    const core::Mechanism& mechanism, const model::SystemConfig& config,
    const LearningOptions& options, std::size_t replications,
    util::ThreadPool* pool = nullptr);

}  // namespace lbmv::strategy
