#pragma once

/// \file workload_allocator.h
/// Exact allocation for workload-dependent service rates.
///
/// For the WorkloadFamily latency l_i(x) = theta_i * x * (1 + gamma * x)
/// the cost theta_i * x^2 * (1 + gamma * x) is a strictly convex cubic, so
/// the KKT system is: find a multiplier lambda with
///
///     c_i'(x_i) = 2 theta_i x_i + 3 theta_i gamma x_i^2 = lambda,
///     sum_i x_i = R,
///
/// and every agent interior (the marginal cost at x = 0 is 0 < lambda, so
/// no agent is ever dropped — unlike M/M/1 there is no capacity bound and
/// no active-set search).  Inverting the quadratic gives the closed form
///
///     x_i(lambda) = (sqrt(1 + 3 gamma lambda / theta_i) - 1) / (3 gamma),
///
/// and the conservation residual g(lambda) = sum_i x_i(lambda) - R is
/// increasing and concave in lambda.  The solver is an undamped Newton
/// iteration on g started at the linear-model estimate lambda_0 = 2R / S
/// (S = sum 1/theta_i): since x_i(lambda) <= lambda/(2 theta_i), the start
/// satisfies g(lambda_0) <= 0, and for a concave increasing g every Newton
/// step from a point with g <= 0 lands again at g <= 0 — the iteration is
/// monotone from below, never overshoots, and needs no bracket or damping.
/// Termination is a fixed point (the step rounds to zero), g == 0 exactly,
/// or a 128-iteration cap, all deterministic: results depend only on the
/// inputs, never on timing or thread count.  The g/g' reductions run on the
/// 4-lane util/simd.h vectors, whose AVX2 and emulated backends are
/// bit-identical by construction.
///
/// Leave-one-out (workload_leave_one_out_into) needs no per-agent O(n)
/// solve.  With G(lambda) = sum_j x_j(lambda), removing agent i moves the
/// multiplier to lambda* + delta_i (delta_i >= 0) where
/// G(lambda* + delta) - x_i(lambda* + delta) = R.  One O(nK) pass
/// accumulates the Taylor coefficients G^(k)(lambda*)/k! for k <= K+1;
/// each delta_i then solves the K-term model of G against the exact x_i
/// by a local Newton iteration in O(K), and the KKT identity
/// C'(lambda) = lambda G'(lambda) integrates the same model into
///
///     L_{-i} = L* + int_0^delta (lambda* + t) G'(lambda* + t) dt
///                 - c_i(x_i(lambda* + delta)).
///
/// Every |x_j^(k)| decreases in lambda, so |G^(K+1)(lambda*)| bounds the
/// remainder over [lambda*, lambda* + delta]; an agent whose certified
/// error exceeds kWorkloadLooRelTol * L_{-i} (small n, where one agent
/// moves the multiplier a lot) takes the exact warm-started solve instead.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/allocator.h"

namespace lbmv::alloc {

/// Hard cap on Newton iterations; the monotone iteration converges
/// quadratically, so hitting this means the inputs are degenerate (and the
/// result at the cap is still the best lower approximation found).
inline constexpr std::size_t kWorkloadNewtonMaxIters = 128;

/// Terms K of the leave-one-out moment expansion.  Fixed at compile time:
/// the moment pass is O(nK) either way, and a fixed K makes every result a
/// function of the inputs alone.
inline constexpr std::size_t kWorkloadLooTerms = 8;

/// Relative error an expanded L_{-i} must certify against; agents above it
/// fall back to the exact solve.
inline constexpr double kWorkloadLooRelTol = 1e-10;

/// Everything one workload-family KKT solve derives.
struct WorkloadSolve {
  double lambda = 0.0;           ///< KKT multiplier (marginal cost at optimum)
  double optimal_latency = 0.0;  ///< min sum_i x_i * l_i(x_i)
  std::size_t iterations = 0;    ///< Newton iterations consumed
};

/// Fused solve: fills rates_out[i] = x_i(lambda*) (thetas.size() slots) and
/// returns the solve summary.  Pass \p warm_start_lambda > 0 to start the
/// Newton iteration there instead of at 2R/S — only valid when
/// g(warm_start) <= 0, which holds for any multiplier of a superset of the
/// agents (leave-one-out re-solves warm-start at the full-set lambda*).
WorkloadSolve workload_solve_into(std::span<const double> thetas, double gamma,
                                  double arrival_rate,
                                  std::span<double> rates_out,
                                  double warm_start_lambda = 0.0);

/// What one leave-one-out vector cost beyond its O(nK) moment pass.
struct WorkloadLooStats {
  std::size_t fallbacks = 0;     ///< agents that took the exact solve
  std::size_t newton_iters = 0;  ///< O(n) Newton sweeps those solves used
};

/// Every leave-one-out optimum L_{-i} (out[i], thetas.size() slots) from
/// the full-set solve \p full and its rates \p rates (workload_solve_into on
/// the same inputs).  \p scratch holds the rest-set planes of fallback
/// solves and is grown on demand.  Requires n >= 2.
WorkloadLooStats workload_leave_one_out_into(std::span<const double> thetas,
                                             double gamma,
                                             double arrival_rate,
                                             const WorkloadSolve& full,
                                             std::span<const double> rates,
                                             std::span<double> out,
                                             std::vector<double>& scratch);

/// Allocator-interface wrapper.  Requires the WorkloadFamily (the gamma is
/// read off the family); exact, so the compensation-and-bonus construction
/// applies.  leave_one_out_into is one full solve plus
/// workload_leave_one_out_into.
class WorkloadAllocator final : public Allocator {
 public:
  [[nodiscard]] model::Allocation allocate(
      const model::LatencyFamily& family, std::span<const double> types,
      double arrival_rate) const override;
  void allocate_into(const model::LatencyFamily& family,
                     std::span<const double> types, double arrival_rate,
                     std::vector<double>& rates) const override;
  [[nodiscard]] double optimal_latency(const model::LatencyFamily& family,
                                       std::span<const double> types,
                                       double arrival_rate) const override;
  void leave_one_out_into(const model::LatencyFamily& family,
                          std::span<const double> types, double arrival_rate,
                          std::vector<double>& out) const override;
  [[nodiscard]] std::string name() const override { return "workload"; }
};

}  // namespace lbmv::alloc
