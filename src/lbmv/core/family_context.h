#pragma once

/// \file family_context.h
/// Closed-form ProfileUtilityContext for the nonlinear latency families
/// with exact allocators: M/M/1 (alloc/mm1_allocator.h) and the
/// workload-dependent-rate family (alloc/workload_allocator.h).
///
/// These extend the audit/strategy fast path of profile_context.h beyond
/// the linear family (DESIGN.md §14).  The M/M/1 context is O(1) per
/// deviation when every computer is active before and after it and the
/// rest profile is consistent (e_j = b_j for j != i), because with
/// a = sqrt(mu) the deviation only moves one term of the two sums sum mu_j
/// and sum a_j, and every active queue length is a_j/c - 1.  With idle
/// computers the deviation is an edit of the committed sorted prefix
/// (alloc::mm1_deviation_solve) and costs O(log n).  Inconsistent
/// opponents, saturation and any failed gate fall back to a full scalar
/// re-solve inside utility(), preserving the allocator's typed
/// PreconditionErrors.  The workload family has no closed-form allocation
/// at all, so its context re-runs the damped-Newton KKT solve per query
/// against a per-call scratch (queries stay safe to issue concurrently);
/// the leave-one-out optima — deviation-independent — are precomputed once
/// per commit with warm-started solves.
///
/// The M/M/1 all-active closed form and its payoff rule switch are written
/// once, as templates over the value type: utility() evaluates them on one
/// double, and the sweep override on four candidate bids per instruction
/// through the lane driver (grid_kernels.h), deferring any lane off the
/// all-active path to utility() itself — the same bits either way.  The
/// workload context keeps the default per-candidate sweep: its Newton
/// re-solve has no lane form.

#include <cstddef>
#include <memory>
#include <vector>

#include "lbmv/alloc/allocator.h"
#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/profile_context.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"

namespace lbmv::core {

/// Closed-form M/M/1 deviation context (file comment above).  Types are
/// mean service times theta = 1/mu, matching MM1Family / MM1Allocator.
class Mm1PrProfileContext final : public ProfileUtilityContext {
 public:
  Mm1PrProfileContext(PaymentRule rule, double arrival_rate,
                      model::BidProfile base);

  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const override;
  void commit(std::size_t agent, double bid, double execution) override;
  /// k simultaneous commits, one O(n) re-derivation instead of k: the
  /// rebuild is a pure function of the committed planes, so writing every
  /// entry first and re-scanning once is state-identical to the sequential
  /// loop (whose intermediate rebuilds are discarded by the final one).
  void commit_batch(std::span<const BidDelta> deltas) override;
  void outcome_into(MechanismOutcome& out) const override;
  [[nodiscard]] double actual_latency() const override { return actual_; }
  [[nodiscard]] const model::BidProfile& profile() const override {
    return profile_;
  }
  [[nodiscard]] bool lane_sweeps() const override { return true; }

  /// Everything a deviation by one agent reads from the caches, O(1).
  struct Rest {
    double mu;     ///< sum_{j != agent} mu_j
    double a;      ///< sum_{j != agent} sqrt(mu_j)
    double min_a;  ///< min_{j != agent} sqrt(mu_j)
    double loo;    ///< L_{-agent} (0 under kNoPayment)
    /// Every opponent executes exactly as bid — required for the O(1)
    /// actual-latency form sum_{j != i} (a_j/c' - 1).
    bool consistent;
  };

 protected:
  void sweep(std::size_t agent, std::span<const double> bids,
             double execution, double* out, GridBest* best) const override;

 private:
  [[nodiscard]] Rest rest_of(std::size_t agent) const;
  /// Full scalar re-solve for deviations neither closed-form path covers.
  /// Allocates locally (concurrent queries stay safe).
  [[nodiscard]] double slow_utility(std::size_t agent, double bid,
                                    double execution) const;
  /// The deviator's utility from the payoff both fast paths share: c over
  /// the deviated active set, the opponents' active sqrt-rate sum and
  /// count, the whole active set's, and the deviator's load x (0 when
  /// idle).  Raises the domain error when x overloads the execution.
  [[nodiscard]] double payoff(std::size_t agent, double loo, double c,
                              double rest_a, double rest_active, double sum_a,
                              double active, double a_dev, double x,
                              double execution) const;
  void rebuild();

  PaymentRule rule_;
  double arrival_rate_;
  model::BidProfile profile_;
  std::vector<double> mus_;   ///< mu_j = 1/b_j
  std::vector<double> a_;     ///< sqrt(mu_j)
  std::vector<double> mue_;   ///< 1/e_j (verified service rates)
  std::vector<double> rates_; ///< committed allocation
  std::vector<double> loo_;   ///< L_{-j} (empty under kNoPayment)
  std::vector<char> inconsistent_;  ///< e_j != b_j
  alloc::Mm1Planes planes_;   ///< committed sorted prefix (always built)
  std::vector<std::size_t> slot_;  ///< slot_[j]: j's place in planes_.order
  double sum_mu_ = 0.0;
  double sum_a_ = 0.0;
  double min_a_ = 0.0;
  double second_a_ = 0.0;
  std::size_t argmin_a_ = 0;
  std::size_t inconsistent_count_ = 0;
  double actual_ = 0.0;
  double reported_ = 0.0;
};

/// Workload-family deviation context: latency theta * x * (1 + gamma x),
/// allocation from the strictly-interior KKT system solved by damped
/// Newton (alloc/workload_allocator.h).  O(n * newton_iters) per query.
class WorkloadProfileContext final : public ProfileUtilityContext {
 public:
  WorkloadProfileContext(PaymentRule rule, double gamma, double arrival_rate,
                         model::BidProfile base);

  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const override;
  void commit(std::size_t agent, double bid, double execution) override;
  /// k simultaneous commits, one cold-start Newton re-derivation instead of
  /// k (see Mm1PrProfileContext::commit_batch for the state-identity
  /// argument — rebuild() reads nothing but the committed planes).
  void commit_batch(std::span<const BidDelta> deltas) override;
  void outcome_into(MechanismOutcome& out) const override;
  [[nodiscard]] double actual_latency() const override { return actual_; }
  [[nodiscard]] const model::BidProfile& profile() const override {
    return profile_;
  }

 private:
  void rebuild();

  PaymentRule rule_;
  double gamma_;
  double arrival_rate_;
  model::BidProfile profile_;
  double lambda_ = 0.0;        ///< committed KKT multiplier
  std::vector<double> rates_;  ///< committed allocation
  std::vector<double> loo_;    ///< L_{-j} (empty under kNoPayment)
  double actual_ = 0.0;
  double reported_ = 0.0;
};

/// Build the family-specific closed-form context, or nullptr unless
/// (family, allocator) is one of the exact nonlinear pairs — MM1Family
/// with MM1Allocator, or WorkloadFamily with WorkloadAllocator — and the
/// rule has a family-generic form (kArcherTardos is linear-only).  \p base
/// is copied.  Mechanisms chain this after make_linear_pr_profile_context.
[[nodiscard]] std::unique_ptr<ProfileUtilityContext>
make_family_profile_context(PaymentRule rule,
                            const model::LatencyFamily& family,
                            const alloc::Allocator& allocator,
                            double arrival_rate,
                            const model::BidProfile& base);

}  // namespace lbmv::core
