#pragma once

/// \file mechanism.h
/// Mechanism-design framework for the load balancing problem.
///
/// Formalises the paper's Definition 3.1/3.2.  A mechanism is a pair of
/// functions: an allocation rule x(b) computed from the agents' bids, and a
/// payment rule P(b, t~) handed to the agents — *after* job execution for
/// mechanisms with verification, so the payment may depend on the observed
/// execution values t~.
///
/// Agent i's valuation is the negation of its latency at the rate it was
/// assigned, V_i = -t~_i * x_i^2 in the linear model (generally
/// -x_i * l_i^{t~}(x_i)), and its utility is U_i = P_i + V_i.  Mechanisms
/// never read the agents' true types; everything they see is the bid profile
/// and the verified execution values.
///
/// A Mechanism is exactly that pair: an allocator and a PaymentRule.  Every
/// path prices the rule through rule_terms (rule_terms.h), and the
/// mechanism's name and properties are read off the rule as well.
/// Mechanism::run_into serves each round with one of four engines — the
/// fused linear-PR, M/M/1 and workload engines for the families whose
/// allocator solves them exactly, or the generic reference path,
/// run_reference_into, which is also the single oracle the fused engines
/// are tested against.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "lbmv/alloc/allocator.h"
#include "lbmv/model/allocation.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"

namespace lbmv::core {

class RoundWorkspace;  // batch.h
struct RoundOptions;   // batch.h

/// The payment rules the shipped mechanisms implement.  A mechanism
/// advertises its rule via Mechanism::payment_rule(); every round engine
/// and profile context dispatches on it through with_payment_rule.
enum class PaymentRule {
  kCompBonusExecution,  ///< C_i = t~_i x_i^2, B_i = L_{-i} - L(x, t~)
  kCompBonusBid,        ///< C_i = b_i  x_i^2, B_i = L_{-i} - L(x, t~)
  kVcg,                 ///< Clarke pivot on the reported types
  kNoPayment,           ///< P_i = 0
  kArcherTardos,        ///< b_i x_i^2 + closed-form payment tail
};

/// The one runtime-rule-to-template dispatch: calls
/// f(std::integral_constant<PaymentRule, rule>{}), so a kernel written as a
/// template over its rule is selected once per call instead of switching
/// per element.
template <class F>
decltype(auto) with_payment_rule(PaymentRule rule, F&& f) {
  using R = PaymentRule;
  switch (rule) {
    case R::kCompBonusExecution:
      return f(std::integral_constant<R, R::kCompBonusExecution>{});
    case R::kCompBonusBid:
      return f(std::integral_constant<R, R::kCompBonusBid>{});
    case R::kVcg:
      return f(std::integral_constant<R, R::kVcg>{});
    case R::kArcherTardos:
      return f(std::integral_constant<R, R::kArcherTardos>{});
    case R::kNoPayment:
      break;
  }
  return f(std::integral_constant<R, R::kNoPayment>{});
}

/// Economic outcome for a single agent in one mechanism round.
struct AgentOutcome {
  double allocation = 0.0;    ///< x_i, the job rate assigned to the agent
  double compensation = 0.0;  ///< C_i (0 for mechanisms without the term)
  double bonus = 0.0;         ///< B_i (0 for mechanisms without the term)
  double payment = 0.0;       ///< P_i handed to the agent
  double valuation = 0.0;     ///< V_i = -(agent's verified latency cost)
  double utility = 0.0;       ///< U_i = P_i + V_i
};

// The fused engines publish four AgentOutcome rows per transposed vector
// store (util::simd::store_records6), so the struct must stay exactly its
// six doubles in field order.
static_assert(sizeof(AgentOutcome) == 6 * sizeof(double) &&
                  offsetof(AgentOutcome, compensation) == 8 &&
                  offsetof(AgentOutcome, bonus) == 16 &&
                  offsetof(AgentOutcome, payment) == 24 &&
                  offsetof(AgentOutcome, valuation) == 32 &&
                  offsetof(AgentOutcome, utility) == 40,
              "AgentOutcome layout is part of the vector publish contract");

/// Full outcome of one mechanism round.
struct MechanismOutcome {
  model::Allocation allocation;
  std::vector<AgentOutcome> agents;
  /// L(x(b), t~): total latency actually incurred, at the execution values.
  double actual_latency = 0.0;
  /// L(x(b), b): total latency the bids predict (what an obedient system
  /// would believe).
  double reported_latency = 0.0;

  [[nodiscard]] double total_payment() const;
  /// Sum of |V_i| — the denominator of the paper's frugality measure.
  [[nodiscard]] double total_valuation_magnitude() const;
};

/// One agent's pending (bid, execution) change, addressed by index.  The
/// unit of work for batched commits (ProfileUtilityContext::commit_batch,
/// one per simultaneous-move learning round).
struct BidDelta {
  std::size_t agent = 0;
  double bid = 0.0;
  double execution = 0.0;
};

/// Winning candidate of a deviation sweep.
struct GridBest {
  std::size_t index = 0;  ///< first index attaining the maximum utility
  double utility = 0.0;   ///< the maximum utility
};

/// The one deviation oracle of the audits and the strategy layers (best
/// response, learning, tournaments, leader-commitment games): the utility
/// of *any* agent under a unilateral deviation from a committed base
/// profile, sweeps of one agent over many candidate bids, plus a way to
/// make a deviation permanent.  Built once per profile by
/// Mechanism::make_profile_context — the family's deviation closed form
/// where one exists, so O(n * grid) deviations cost O(1) each, else the
/// reference context — or by Mechanism::make_reference_context, which
/// always re-runs the mechanism per deviation (the oracle and the baseline
/// measurements).  The round outcome at the committed profile is
/// Mechanism::run_into's on profile().
///
/// Contract:
///   * utility(), utilities_into() and best_response() are pure reads and
///     safe to call concurrently;
///   * every query and commit checks model::require_valid_deviation (agent
///     in range, bid and execution finite and > 0) once, here in the base
///     class, and throws its PreconditionError;
///   * commit() permanently moves one agent to (bid, execution) — it writes
///     the entry and re-derives the context from the committed profile, so
///     a commit batch costs one O(n) rebuild — and is NOT safe to call
///     concurrently with any query;
///   * counters (obs/probes.h, when recording is on): utility() bumps
///     lbmv_strategy_deviation_evals_total, and
///     lbmv_strategy_mechanism_runs_avoided_total when closed_form(); each
///     sweep bumps lbmv_strategy_grid_evals_total by its candidates,
///     lbmv_strategy_grid_lanes_wasted_total by its padded tail lanes when
///     lane_sweeps(); each commit bumps lbmv_strategy_commits_total per
///     entry.  A sweep's
///     per-candidate work is not a deviation query and counts nothing more.
class ProfileUtilityContext {
 public:
  virtual ~ProfileUtilityContext() = default;

  /// Utility of \p agent when it deviates to (\p bid, \p execution), with
  /// every other agent as committed.
  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const;

  /// out[k] = utility(agent, bids[k], execution) for every k — the same
  /// bits and the same first error as that loop.  \p out must be at least
  /// bids.size() long and must not alias \p bids.
  void utilities_into(std::size_t agent, std::span<const double> bids,
                      double execution, std::span<double> out) const;

  /// The utility-maximising candidate of the same sweep, ties to the
  /// smallest index: identical to a strictly-greater first-wins scan of
  /// utility() in index order.  Requires a non-empty grid.
  [[nodiscard]] GridBest best_response(std::size_t agent,
                                       std::span<const double> bids,
                                       double execution) const;

  /// Whether a family's closed form answers the queries; false only on the
  /// reference context, where every query is one mechanism run.
  [[nodiscard]] virtual bool closed_form() const { return true; }

  /// Whether sweeps evaluate four candidates per instruction (the linear
  /// closed form's lane sweep, grid_kernels.h) rather than one utility()
  /// call per candidate.  Only telemetry reads it (padded-lane accounting).
  [[nodiscard]] virtual bool lane_sweeps() const { return false; }

  /// Make a deviation permanent: agent now bids \p bid and executes at
  /// \p execution for all subsequent queries.
  void commit(std::size_t agent, double bid, double execution);

  /// Make k deviations permanent in one call, state-identical to k
  /// sequential commit()s (later entries for the same agent win).  Every
  /// entry is checked before any is written, so a rejected batch changes
  /// nothing.
  void commit_batch(std::span<const BidDelta> deltas);

  /// The committed profile.
  [[nodiscard]] const model::BidProfile& profile() const { return profile_; }

 protected:
  /// Checks what every context needs (n >= 2, a valid profile, a positive
  /// finite arrival rate) and takes \p base as the committed profile.
  ProfileUtilityContext(PaymentRule rule, double arrival_rate,
                        model::BidProfile base);

  [[nodiscard]] PaymentRule rule() const { return rule_; }
  [[nodiscard]] double arrival_rate() const { return arrival_rate_; }

  /// The deviation's utility at a query the base class has checked.
  [[nodiscard]] virtual double deviation_utility(std::size_t agent,
                                                 double bid,
                                                 double execution) const = 0;

  /// utility() without its counters: the per-candidate query of a sweep.
  [[nodiscard]] double checked_utility(std::size_t agent, double bid,
                                       double execution) const {
    model::require_valid_deviation(agent, profile_.size(), bid, execution);
    return deviation_utility(agent, bid, execution);
  }

  /// The sweep behind utilities_into (\p out non-null) and best_response
  /// (\p best non-null), over a non-empty grid.  The default calls
  /// checked_utility() per candidate and keeps the first strictly-greater
  /// maximum; closed-form contexts override it with the lane sweep.
  virtual void sweep(std::size_t agent, std::span<const double> bids,
                     double execution, double* out, GridBest* best) const;

  /// Re-derive the context's state from the committed profile.  The
  /// context's state is a function of profile() alone: commit() and
  /// commit_batch() write their entries and call this once.
  virtual void rebuild() = 0;

 private:
  PaymentRule rule_;
  double arrival_rate_;
  model::BidProfile profile_;
};

/// A load balancing mechanism (Definition 3.2): an allocation rule and a
/// payment rule.  The shipped mechanisms (comp_bonus.h, vcg.h,
/// no_payment.h, archer_tardos.h) are this class with their pair filled in.
class Mechanism {
 public:
  virtual ~Mechanism() = default;

  /// Run one round: allocate from the bids, evaluate the verified execution,
  /// compute payments and per-agent utilities.
  ///
  /// Requires at least two agents (marginal-contribution payments remove one
  /// agent at a time) and a validated profile.
  [[nodiscard]] MechanismOutcome run(const model::LatencyFamily& family,
                                     double arrival_rate,
                                     const model::BidProfile& profile) const;

  /// Convenience overload reading family and arrival rate from a config.
  /// The config's true values are *not* consulted.
  [[nodiscard]] MechanismOutcome run(const model::SystemConfig& config,
                                     const model::BidProfile& profile) const;

  /// Allocation-free round kernel behind run(), writing into \p out and
  /// drawing every scratch plane from \p ws.  It dispatches to exactly one
  /// of four engines: the fused linear-PR engine (simd_round.h), the fused
  /// M/M/1 and workload engines (family_round.h) when the allocator solves
  /// that family exactly, and otherwise run_reference_into.  A fused engine
  /// that meets a round it cannot finish with finite results hands it to
  /// run_reference_into too, so every outcome is either finite or the
  /// reference path's own.  A warm (out, ws) pair — one that has already
  /// seen this agent count — performs zero heap allocations on the fused
  /// engines.  \p ws may be RoundWorkspace::thread_local_instance();
  /// ws.scratch_profile / ws.scratch_outcome are never touched, so callers
  /// may pass ws.scratch_outcome as \p out.
  void run_into(const model::LatencyFamily& family, double arrival_rate,
                std::span<const double> bids,
                std::span<const double> executions, MechanismOutcome& out,
                RoundWorkspace& ws) const;

  /// run_into with explicit fan-out control for the vectorized engine (see
  /// RoundOptions in batch.h).  Results are bit-identical for every shard
  /// and thread count; only wall-clock changes.  The overload above uses
  /// RoundOptions{} (auto sharding for large n).
  void run_into(const model::LatencyFamily& family, double arrival_rate,
                std::span<const double> bids,
                std::span<const double> executions, MechanismOutcome& out,
                RoundWorkspace& ws, const RoundOptions& options) const;

  /// run_into over a BidProfile.
  void run_into(const model::LatencyFamily& family, double arrival_rate,
                const model::BidProfile& profile, MechanismOutcome& out,
                RoundWorkspace& ws) const;

  /// run_into reading family and arrival rate from a config.
  void run_into(const model::SystemConfig& config,
                const model::BidProfile& profile, MechanismOutcome& out,
                RoundWorkspace& ws) const;

  /// The generic engine and the single oracle the fused engines are held
  /// to: allocate through the allocator, build each agent's latency
  /// functions from the family, and price every agent through rule_terms
  /// on those functions' costs and the allocator's leave-one-out optima.
  /// Same contract and obs probes as run_into, for any family, allocator
  /// and rule.  A verified cost that is not finite throws a
  /// PreconditionError naming the first such computer instead of
  /// publishing a NaN payment.
  void run_reference_into(const model::LatencyFamily& family,
                          double arrival_rate, std::span<const double> bids,
                          std::span<const double> executions,
                          MechanismOutcome& out, RoundWorkspace& ws) const;

  /// The payment rule this mechanism implements, which every engine and
  /// profile context prices through rule_terms.
  [[nodiscard]] PaymentRule payment_rule() const { return rule_; }

  /// The rule's name: "comp-bonus", "comp-bonus(bid-compensation)", "vcg",
  /// "no-payment" or "archer-tardos".
  [[nodiscard]] std::string name() const;

  /// Whether the payment rule observes execution values (a "mechanism with
  /// verification", paper Definition 3.2) — if false, payments depend on the
  /// bids alone and slow execution goes unpunished.  Only the comp-bonus
  /// rules do.
  [[nodiscard]] bool uses_verification() const;

  /// Whether the mechanism guarantees nonnegative utility to agents that
  /// execute exactly as bid (voluntary participation, paper Thm 3.2 —
  /// which every leave-one-out bonus rule satisfies at *any* consistent
  /// profile, not just the truthful one).  The online invariant monitors
  /// (core/invariants.h) arm the participation check only when this holds;
  /// the no-payment rule opts out (agents eat their cost unpaid by design).
  [[nodiscard]] bool guarantees_voluntary_participation() const;

  /// The deviation context for payment_rule() over the whole profile (any
  /// agent, with commit support): the family's closed form for exactly the
  /// families a fused engine serves — the linear-PR context
  /// (profile_context.h) or the M/M/1 or workload context
  /// (family_context.h; not for kArcherTardos) — and otherwise
  /// make_reference_context's.  Never null; closed_form() tells which.
  /// This mechanism and \p family must outlive the context; \p base is
  /// copied.
  [[nodiscard]] std::unique_ptr<ProfileUtilityContext> make_profile_context(
      const model::LatencyFamily& family, double arrival_rate,
      const model::BidProfile& base) const;

  /// The reference context, for any family, allocator and rule: utility()
  /// is one run_deviated, so it equals run() on the deviated profile bit
  /// for bit; commits only write the profile, and sweeps are the base
  /// class's utility() loop.  Queries are safe to call concurrently.  This
  /// mechanism and \p family must outlive the context; \p base is copied.
  [[nodiscard]] std::unique_ptr<ProfileUtilityContext> make_reference_context(
      const model::LatencyFamily& family, double arrival_rate,
      const model::BidProfile& base) const;

  /// One round at \p base with the entries of \p deltas replaced (later
  /// entries win) — the run-per-deviation oracle behind the reference
  /// context and the coalition audit.  It patches a copy in the calling
  /// thread's RoundWorkspace::thread_local_instance().scratch_profile and
  /// returns that workspace's scratch_outcome, valid until the thread's
  /// next call.  Safe to call concurrently from different threads.
  const MechanismOutcome& run_deviated(const model::LatencyFamily& family,
                                       double arrival_rate,
                                       const model::BidProfile& base,
                                       std::span<const BidDelta> deltas) const;

  [[nodiscard]] const alloc::Allocator& allocator() const {
    return *allocator_;
  }

 protected:
  Mechanism(std::shared_ptr<const alloc::Allocator> allocator,
            PaymentRule rule);

 private:
  std::shared_ptr<const alloc::Allocator> allocator_;
  PaymentRule rule_;
};

/// The default allocation rule used throughout the paper: the PR algorithm.
[[nodiscard]] std::shared_ptr<const alloc::Allocator> default_allocator();

}  // namespace lbmv::core
