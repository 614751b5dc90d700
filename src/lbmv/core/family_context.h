#pragma once

/// \file family_context.h
/// Closed-form ProfileUtilityContext for the nonlinear latency families
/// with exact allocators: M/M/1 (alloc/mm1_allocator.h) and the
/// workload-dependent-rate family (alloc/workload_allocator.h), DESIGN.md
/// §14.
///
/// The M/M/1 context answers a deviation in O(log n) when every opponent
/// executes as bid: the deviator leaves its slot of the committed sorted
/// prefix and re-enters at its new rate's rank
/// (alloc::mm1_deviation_solve), which solves all-active and idle-server
/// profiles alike, and every active queue length is a_j/c - 1 with
/// a = sqrt(mu).  Inconsistent opponents, saturation and any failed gate
/// re-solve inside utility(), keeping the allocator's typed
/// PreconditionErrors.  The workload context re-runs the Newton KKT solve
/// per query on local planes (queries stay safe to issue concurrently)
/// against leave-one-out optima precomputed per commit.
///
/// Every path ends in rule_terms.h's rule_terms, the one definition of the
/// payment rules that the fused rounds publish through too, and prices the
/// M/M/1 verified cost as model::mm1_cost behind
/// alloc::require_mm1_capacity, as the fused round does.  Both contexts
/// keep the default per-candidate sweep.  A commit re-derives once
/// (rebuild()); the committed round's outcome is Mechanism::run_into's.

#include <cstddef>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"

namespace lbmv::core {

/// Closed-form M/M/1 deviation context (file comment above).  Types are
/// mean service times theta = 1/mu, matching MM1Family / MM1Allocator.
class Mm1PrProfileContext final : public ProfileUtilityContext {
 public:
  Mm1PrProfileContext(PaymentRule rule, double arrival_rate,
                      model::BidProfile base);

 protected:
  [[nodiscard]] double deviation_utility(std::size_t agent, double bid,
                                         double execution) const override;
  /// O(n log n): the committed solve, the leave-one-out plane and the
  /// sorted prefix the deviation queries edit.
  void rebuild() override;

 private:
  /// Full scalar re-solve for deviations the edited-order solve does not
  /// cover.  Allocates locally (concurrent queries stay safe).
  [[nodiscard]] double slow_utility(std::size_t agent, double bid,
                                    double execution) const;
  /// L_{-agent}, or 0 for a rule that does not read it.
  [[nodiscard]] double loo_at(std::size_t agent) const;

  std::vector<double> mus_;   ///< mu_j = 1/b_j
  std::vector<double> mue_;   ///< 1/e_j (verified service rates)
  std::vector<double> rates_; ///< committed allocation (rebuild scratch)
  std::vector<double> loo_;   ///< L_{-j} (empty unless the rule reads it)
  std::vector<char> inconsistent_;  ///< e_j != b_j
  alloc::Mm1Planes planes_;   ///< committed sorted prefix (always built)
  std::vector<std::size_t> slot_;  ///< slot_[j]: j's place in planes_.order
  double sum_mu_ = 0.0;
  std::size_t inconsistent_count_ = 0;
};

/// Workload-family deviation context: latency theta * x * (1 + gamma x),
/// allocation from the strictly-interior KKT system solved by damped
/// Newton (alloc/workload_allocator.h).  O(n * newton_iters) per query.
class WorkloadProfileContext final : public ProfileUtilityContext {
 public:
  WorkloadProfileContext(PaymentRule rule, double gamma, double arrival_rate,
                         model::BidProfile base);

 protected:
  [[nodiscard]] double deviation_utility(std::size_t agent, double bid,
                                         double execution) const override;
  /// One cold-start Newton solve plus the leave-one-out plane.
  void rebuild() override;

 private:
  double gamma_;
  std::vector<double> rates_;  ///< committed allocation
  std::vector<double> loo_;    ///< L_{-j} (empty unless the rule reads it)
};

}  // namespace lbmv::core
