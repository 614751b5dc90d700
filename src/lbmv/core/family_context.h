#pragma once

/// \file family_context.h
/// Closed-form ProfileUtilityContext for the nonlinear latency families
/// with exact allocators: M/M/1 (alloc/mm1_allocator.h) and the
/// workload-dependent-rate family (alloc/workload_allocator.h), DESIGN.md
/// §14.
///
/// The M/M/1 context is O(1) per deviation when every computer is active
/// before and after it and the rest executes as bid (with a = sqrt(mu) the
/// deviation moves one term of sum mu_j and sum a_j, and every active queue
/// length is a_j/c - 1), and O(log n) when some computer is idle (an edit
/// of the committed sorted prefix, alloc::mm1_deviation_solve).
/// Inconsistent opponents, saturation and any failed gate re-solve inside
/// utility(), keeping the allocator's typed PreconditionErrors.  The
/// workload context re-runs the Newton KKT solve per query on local planes
/// (queries stay safe to issue concurrently) against leave-one-out optima
/// precomputed per commit.
///
/// Every path ends in rule_terms.h's rule_terms, the one definition of the
/// payment rules that the fused rounds publish through too.  The M/M/1
/// all-active closed form is a template over the value type: the scalar
/// query on one double, the sweep on four candidates per instruction
/// through the lane driver (grid_kernels.h), which defers any lane off that
/// path to the scalar query — the same bits either way.  The workload
/// context keeps the default per-candidate sweep.  A commit re-derives once
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

  [[nodiscard]] bool lane_sweeps() const override { return true; }

  /// Everything a deviation by one agent reads from the caches, O(1).
  struct Rest {
    double mu;     ///< sum_{j != agent} mu_j
    double a;      ///< sum_{j != agent} sqrt(mu_j)
    double min_a;  ///< min_{j != agent} sqrt(mu_j)
    double loo;    ///< L_{-agent} (0 for a rule that does not read it)
    /// Every opponent executes exactly as bid — required for the O(1)
    /// actual-latency form sum_{j != i} (a_j/c' - 1).
    bool consistent;
  };

 protected:
  [[nodiscard]] double deviation_utility(std::size_t agent, double bid,
                                         double execution) const override;
  void sweep(std::size_t agent, std::span<const double> bids,
             double execution, double* out, GridBest* best) const override;
  /// O(n): the min/arg-min pair and the leave-one-out plane cannot be
  /// delta-updated without a re-scan anyway, and commits are rare next to
  /// queries in every strategy loop.
  void rebuild() override;

 private:
  [[nodiscard]] Rest rest_of(std::size_t agent) const;
  /// Full scalar re-solve for deviations neither closed-form path covers.
  /// Allocates locally (concurrent queries stay safe).
  [[nodiscard]] double slow_utility(std::size_t agent, double bid,
                                    double execution) const;

  std::vector<double> mus_;   ///< mu_j = 1/b_j
  std::vector<double> a_;     ///< sqrt(mu_j)
  std::vector<double> mue_;   ///< 1/e_j (verified service rates)
  std::vector<double> rates_; ///< committed allocation (rebuild scratch)
  std::vector<double> loo_;   ///< L_{-j} (empty unless the rule reads it)
  std::vector<char> inconsistent_;  ///< e_j != b_j
  alloc::Mm1Planes planes_;   ///< committed sorted prefix (always built)
  std::vector<std::size_t> slot_;  ///< slot_[j]: j's place in planes_.order
  double sum_mu_ = 0.0;
  double sum_a_ = 0.0;
  double min_a_ = 0.0;
  double second_a_ = 0.0;
  std::size_t argmin_a_ = 0;
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
