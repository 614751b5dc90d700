#pragma once

/// \file deviation.h
/// O(1) single-deviation game engine.
///
/// Every strategic-behaviour experiment in the paper reduces to the same
/// primitive: one agent's utility under a unilateral (bid, execution)
/// deviation from an otherwise fixed profile.  DeviationEvaluator answers
/// every query through one core::ProfileUtilityContext.  Under kAuto that
/// is the mechanism's closed form wherever a family has one
/// (Mechanism::make_profile_context) — O(1) on the linear-PR family for all
/// five payment rules, O(1) or O(log n) on M/M/1, one Newton re-solve on
/// the workload family.  Otherwise, and always under kNaive, it is the
/// reference context (Mechanism::make_reference_context): one
/// Mechanism::run_into per query on the deviated profile.  commit() makes a
/// deviation permanent through the context's commit path (an O(1) delta to
/// the cached sums on the linear family).  The committed round's outcome
/// (outcome_into, actual_latency) is always one Mechanism::run_into on
/// profile(), so it equals mechanism.run(config, profile()) exactly.
///
/// Candidate sweeps (utilities_into, best_response) run the context's own
/// sweep — four candidates per instruction on the linear-PR and M/M/1
/// closed forms (DESIGN.md §13), one utility() per candidate otherwise —
/// and optionally fan out over a util::ThreadPool in FIXED 1024-candidate
/// blocks merged in block order, so results (and the first error thrown)
/// are bit-identical at any thread count, pooled or serial.
///
/// Best-response dynamics, bandit learning, tournaments and the leader-
/// commitment game are all built on this one class; see DESIGN.md §10 for
/// the complexity accounting.

#include <memory>
#include <span>

#include "lbmv/core/batch.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"

namespace lbmv::util {
class ThreadPool;
}

namespace lbmv::strategy {

/// Per-profile deviation engine.  The mechanism must outlive the evaluator
/// (the config's latency family is retained).
///
/// Thread safety: utility() and the sweeps are pure reads and safe to call
/// concurrently on either context.  outcome_into() and actual_latency()
/// run the mechanism on the evaluator's workspace and are never safe to
/// call concurrently with anything, nor is commit().
///
/// Obs: utility() bumps lbmv_strategy_deviation_evals_total (and
/// lbmv_strategy_mechanism_runs_avoided_total on a closed form); sweeps
/// bump lbmv_strategy_grid_evals_total (every candidate) and
/// lbmv_strategy_grid_lanes_wasted_total (padded tail lanes of lane sweeps)
/// and record lbmv_strategy_grid_round_seconds when recording is on — the
/// same counts in both modes apart from the avoided runs and wasted lanes.
class DeviationEvaluator {
 public:
  enum class Mode {
    kAuto,   ///< use the closed form when the mechanism offers one
    kNaive,  ///< always re-run the mechanism (baseline / differential tests)
  };

  /// Evaluate deviations from \p profile (copied; must validate against
  /// \p config).
  DeviationEvaluator(const core::Mechanism& mechanism,
                     const model::SystemConfig& config,
                     model::BidProfile profile, Mode mode = Mode::kAuto);

  /// Convenience: start from the truthful profile.
  DeviationEvaluator(const core::Mechanism& mechanism,
                     const model::SystemConfig& config, Mode mode = Mode::kAuto);

  /// Utility of \p agent deviating to (\p bid, \p execution), everyone else
  /// as committed.  O(1) on the incremental path, one Mechanism::run_into
  /// on the reference context.
  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const;

  /// out[k] = utility(agent, bids[k], execution) for every k, bit for bit
  /// (same first error too); \p out must be at least bids.size() long.
  /// \p pool, when non-null, fans sweeps longer than one 1024-candidate
  /// block over the pool.
  void utilities_into(std::size_t agent, std::span<const double> bids,
                      double execution, std::span<double> out,
                      util::ThreadPool* pool = nullptr) const;

  /// Utility-maximising candidate, ties to the smallest index — identical
  /// to a strictly-greater scalar scan in index order.  Requires a
  /// non-empty grid; \p pool as for utilities_into.
  [[nodiscard]] core::GridBest best_response(
      std::size_t agent, std::span<const double> bids, double execution,
      util::ThreadPool* pool = nullptr) const;

  /// Make a deviation permanent for all subsequent queries.  O(1) amortised
  /// on the incremental path.
  void commit(std::size_t agent, double bid, double execution);

  /// Make k deviations permanent in one call (later entries for the same
  /// agent win).  State-identical to committing sequentially; contexts
  /// whose single commit is a full O(n) re-derivation (the nonlinear
  /// families) re-derive once for the whole batch instead of k times, so a
  /// simultaneous-move round (learning dynamics) pays one rebuild.
  void commit_batch(std::span<const core::BidDelta> deltas);

  /// Full mechanism outcome at the committed profile — one
  /// Mechanism::run_into, so exactly mechanism.run(config, profile()) —
  /// reusing \p out's storage.  Not safe to call concurrently.
  void outcome_into(core::MechanismOutcome& out) const;

  /// L(x(b), t~) at the committed profile, from one Mechanism::run_into.
  /// Not safe to call concurrently.
  [[nodiscard]] double actual_latency() const;

  /// The committed profile.
  [[nodiscard]] const model::BidProfile& profile() const {
    return context_->profile();
  }

  /// Whether a closed form answers the queries (false: every query is a
  /// full mechanism run on the reference context).
  [[nodiscard]] bool incremental() const { return closed_form_; }

  /// The closed-form context backing the incremental path (nullptr when
  /// the reference context answers).
  [[nodiscard]] const core::ProfileUtilityContext* profile_context() const {
    return closed_form_ ? context_.get() : nullptr;
  }

 private:
  const core::Mechanism* mechanism_;
  std::shared_ptr<const model::LatencyFamily> family_;  ///< keeps family alive
  double arrival_rate_;
  /// Answers every query and owns the committed profile.
  std::unique_ptr<core::ProfileUtilityContext> context_;
  bool closed_form_ = false;  ///< context_ came from make_profile_context
  /// outcome_into / actual_latency reuse these planes (and
  /// ws_.scratch_outcome), allocation-free after warm-up.
  mutable core::RoundWorkspace ws_;
};

}  // namespace lbmv::strategy
