#pragma once

/// \file convex_allocator.h
/// General convex-latency allocation by marginal-cost equalisation.
///
/// For any family of convex costs c_i(x) = x * l_i(x) with strictly
/// increasing marginals, the KKT conditions of
///
///     minimise sum_i c_i(x_i)  s.t.  sum_i x_i = R,  x_i >= 0
///
/// state that there exists a multiplier lambda with c_i'(x_i) = lambda on
/// the active set and c_i'(0) >= lambda for idle computers (paper Appendix,
/// Kuhn–Tucker argument of Theorem 2.1).  The solver searches lambda by
/// bisection, inverting each marginal numerically; this recovers the PR
/// closed form on linear latencies to ~1e-12 and extends to M/M/1, M/G/1
/// and power-law latencies unchanged.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/allocator.h"

namespace lbmv::alloc {

/// Water-filling solver over explicit latency curves.
///
/// Requires arrival_rate < sum of max_rate() over the curves (finite-capacity
/// families such as M/M/1 must be able to absorb the load).
[[nodiscard]] model::Allocation convex_allocate(
    std::span<const std::unique_ptr<model::LatencyFunction>> latencies,
    double arrival_rate, double tol = 1e-12);

/// Allocator-interface wrapper instantiating curves from a family.
class ConvexAllocator final : public Allocator {
 public:
  /// \p tol is the relative tolerance on the conservation constraint.
  explicit ConvexAllocator(double tol = 1e-12) : tol_(tol) {}

  void allocate_into(const model::LatencyFamily& family,
                     std::span<const double> types, double arrival_rate,
                     std::vector<double>& rates) const override;
  [[nodiscard]] std::string name() const override { return "convex"; }

 private:
  double tol_;
};

}  // namespace lbmv::alloc
