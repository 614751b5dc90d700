#pragma once

/// \file audit.h
/// Empirical certification of the mechanism's game-theoretic properties.
///
/// Theorem 3.1 (truthfulness) says that for every agent, every profile of
/// the other agents' bids, and every own deviation (b_i, t~_i), the agent's
/// utility is maximised at b_i = t_i, t~_i = t_i.  Theorem 3.2 (voluntary
/// participation) says the truthful utility is never negative.  The
/// auditors here check both claims by exhaustive grid sweeps over deviation
/// multipliers — the computational analogue of the proofs — and are used by
/// the property-test suites and by the ablation benches to demonstrate
/// where the *unverified* baselines break.

#include <cstddef>
#include <vector>

#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"

namespace lbmv::util {
class ThreadPool;
}  // namespace lbmv::util

namespace lbmv::core {

/// One evaluated deviation of the audited agent.
struct Deviation {
  double bid_mult = 1.0;   ///< bid = bid_mult * true value
  double exec_mult = 1.0;  ///< execution = exec_mult * true value (>= 1)
  double utility = 0.0;    ///< resulting utility of the audited agent
};

/// Grid and execution options for an audit.
struct AuditOptions {
  /// Multipliers applied to the agent's true value to form candidate bids;
  /// each must be finite and > 0.
  std::vector<double> bid_multipliers{0.1,  0.25, 0.5, 0.75, 0.9, 0.95,
                                      1.0,  1.05, 1.1, 1.25, 1.5, 2.0,
                                      3.0,  5.0,  10.0};
  /// Multipliers forming candidate execution values; each must be finite
  /// and >= 1 (an agent cannot execute faster than its true capacity).
  /// Every audit entry point rejects a malformed grid before any work, with
  /// a PreconditionError naming the entry (e.g. "bid_multipliers[3]").
  std::vector<double> exec_multipliers{1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0};
  bool parallel = true;    ///< fan the work out on a thread pool
  bool keep_grid = false;  ///< retain every Deviation in the report
  /// Sweep the mechanism's profile context (Mechanism::make_profile_context:
  /// the family's closed form where one exists, O(1) per grid point, since
  /// only the audited agent's entries change across a sweep).  When false
  /// the sweep reads the reference context (Mechanism::make_reference_context),
  /// one full mechanism run per grid point.  The two agree to
  /// floating-point roundoff; the flag exists so benches and property tests
  /// can compare them.
  bool incremental = true;
};

/// Outcome of auditing one agent.
struct AuditReport {
  std::size_t agent = 0;
  double truthful_utility = 0.0;  ///< U_i at (t_i, t_i) given the base profile
  Deviation best;                 ///< the highest-utility grid point
  double max_gain = 0.0;          ///< best.utility - truthful_utility
  std::vector<Deviation> grid;    ///< full grid if keep_grid was set

  /// Truth-telling is a best response on the grid (up to tolerance, scaled
  /// by the magnitude of the truthful utility).
  [[nodiscard]] bool truthful_dominant(double tol = 1e-9) const;
};

/// Sweeps deviation grids against a mechanism.
class TruthfulnessAuditor {
 public:
  /// The mechanism must outlive the auditor.
  explicit TruthfulnessAuditor(const Mechanism& mechanism)
      : mechanism_(&mechanism) {}

  /// Audit agent \p agent with every other agent truthful.
  [[nodiscard]] AuditReport audit_agent(const model::SystemConfig& config,
                                        std::size_t agent,
                                        const AuditOptions& options = {}) const;

  /// Audit agent \p agent against an arbitrary base profile for the others
  /// (Theorem 3.1 quantifies over all opposing bids, not just truthful
  /// ones); the audited agent's own entries in \p base are ignored.
  [[nodiscard]] AuditReport audit_agent(const model::SystemConfig& config,
                                        std::size_t agent,
                                        const model::BidProfile& base,
                                        const AuditOptions& options) const;

  /// Audit every agent (others truthful).  The opponents are the same for
  /// every agent, so one profile context (closed-form or reference) is
  /// built and every agent's sweep reads it; reports equal a per-agent
  /// audit_agent loop bit for bit.  Parallel audits run on the global pool.
  [[nodiscard]] std::vector<AuditReport> audit_all(
      const model::SystemConfig& config,
      const AuditOptions& options = {}) const;

  /// Same audit, with options.parallel fanning agents out on \p pool.
  [[nodiscard]] std::vector<AuditReport> audit_all(
      const model::SystemConfig& config, const AuditOptions& options,
      util::ThreadPool& pool) const;

 private:
  const Mechanism* mechanism_;
};

/// One evaluated *joint* deviation of a pair of agents.
struct CoalitionDeviation {
  double bid_mult_a = 1.0;
  double exec_mult_a = 1.0;
  double bid_mult_b = 1.0;
  double exec_mult_b = 1.0;
  double joint_utility = 0.0;  ///< U_a + U_b (transferable utility)
};

/// Outcome of auditing a pair for collusion opportunities.
struct CoalitionReport {
  std::size_t agent_a = 0;
  std::size_t agent_b = 0;
  double truthful_joint_utility = 0.0;
  CoalitionDeviation best;
  double max_joint_gain = 0.0;

  /// Whether no joint deviation on the grid beats joint truth-telling.
  [[nodiscard]] bool coalition_proof(double tol = 1e-9) const;
};

/// Sweeps joint deviation grids for pairs of agents.
///
/// Truthfulness (Theorem 3.1) is a *unilateral* guarantee; like VCG, the
/// compensation-and-bonus mechanism is NOT coalition-proof: a pair with
/// transferable utility can coordinate (one inflates the other's
/// leave-one-out counterfactual) and split a strictly positive gain.  The
/// auditor makes that gap measurable (see bench_coalition).  Each joint
/// deviation is one Mechanism::run_deviated with both agents' entries
/// replaced — the oracle the reference context reads too.
class CoalitionAuditor {
 public:
  explicit CoalitionAuditor(const Mechanism& mechanism)
      : mechanism_(&mechanism) {}

  /// Audit the pair (a, b) with everyone else truthful.  Grids as in
  /// AuditOptions (exec multipliers must be >= 1).
  [[nodiscard]] CoalitionReport audit_pair(
      const model::SystemConfig& config, std::size_t agent_a,
      std::size_t agent_b, const AuditOptions& options = {}) const;

 private:
  const Mechanism* mechanism_;
};

/// Utilities of every agent at the all-truthful profile.
[[nodiscard]] std::vector<double> truthful_utilities(
    const Mechanism& mechanism, const model::SystemConfig& config);

/// Theorem 3.2 check: all truthful utilities >= -tol.
[[nodiscard]] bool voluntary_participation_holds(
    const Mechanism& mechanism, const model::SystemConfig& config,
    double tol = 1e-9);

}  // namespace lbmv::core
