#pragma once

/// \file pr_allocator.h
/// The paper's PR (proportional-rate) allocation algorithm.
///
/// Theorem 2.1: for linear latencies l_i(x) = t_i * x, the total latency
/// L(x) = sum_i t_i x_i^2 is minimised subject to sum x_i = R, x_i >= 0 by
///
///     x_i* = (1/t_i) / (sum_j 1/t_j) * R        (paper eq. (3))
///
/// i.e. jobs are allocated in proportion to processing rates, giving
///
///     L* = R^2 / sum_j (1/t_j).                 (paper eq. (4))

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/allocator.h"
#include "lbmv/util/error.h"

namespace lbmv::alloc {

/// Bits the subtraction S - 1/t_i may cancel before agent i's rest
/// S_{-i} = sum_{j != i} 1/t_j is summed from the other agents instead.
/// At most one agent can hold more than half of S, so for every other agent
/// S - 1/t_i keeps at least half of S and loses at most one bit.  Only the
/// agent whose rest falls below 2^-k S is summed directly (pr_rest_cancels),
/// so every rest carries a relative error of at most 2^k (n - 1) u + u
/// (u = 2^-53; about 2.7e-14 at n = 16) from a sum of positive terms.
inline constexpr int kLeaveOneOutMaxLostBits = 4;

/// Whether S - 1/t_i (\p inverse_sum minus \p inverse) cancels more than
/// \p lost_bits bits (below 2^-lost_bits S).  At the default,
/// kLeaveOneOutMaxLostBits, true for at most one agent of a round: the one
/// test every round and context applies to decide which rest it sums
/// directly.  Deployments that hold only S pass their own budget
/// (dist/protocols.h).
[[nodiscard]] inline bool pr_rest_cancels(
    double inverse_sum, double inverse,
    int lost_bits = kLeaveOneOutMaxLostBits) {
  return inverse_sum - inverse < inverse_sum * std::ldexp(1.0, -lost_bits);
}

/// Agent \p agent's rest S_{-i} given S = \p inverse_sum over \p types:
/// S - 1/t_i, unless that cancels (pr_rest_cancels), in which case the
/// other agents' 1/t_j are added in index order, the order of S.  O(n) for
/// at most one agent per round.
[[nodiscard]] double pr_rest_at(double inverse_sum,
                                std::span<const double> types,
                                std::size_t agent);

/// One agent's PR rate (1/t_i)/S * R given S = \p inverse_sum: the body of
/// pr_allocate_into's loop, for callers that allocate one agent at a time
/// (the distributed deployments, dist/protocols.h).
[[nodiscard]] inline double pr_rate_at(double type, double inverse_sum,
                                       double arrival_rate) {
  return (1.0 / type) / inverse_sum * arrival_rate;
}

/// One agent's leave-one-out optimum R^2 / S_{-i} from its rest \p rest
/// (pr_rest_at): the body of pr_leave_one_out_from_sum's loop, for the same
/// callers.  A quotient past the double range (R^2 or the division
/// overflowing) is no optimum and throws naming the agent.
[[nodiscard]] inline double pr_leave_one_out_at(double rest,
                                                double arrival_rate,
                                                std::size_t agent,
                                                std::size_t n) {
  const double loo = arrival_rate * arrival_rate / rest;
  LBMV_REQUIRE(std::isfinite(loo),
               "leave-one-out optimum R^2 / (S - 1/t_i) overflows the double "
               "range (agent " +
                   std::to_string(agent) + " of " + std::to_string(n) + ")");
  return loo;
}

/// Everything the PR closed form derives from one pass over the types.
/// Returned by pr_allocate_into so callers that need the allocation, the
/// optimum, and the leave-one-out vector never accumulate S twice.
struct PrSolve {
  double inverse_sum = 0.0;      ///< S = sum_j 1/t_j
  double optimal_latency = 0.0;  ///< L* = R^2 / S (paper eq. (4))
};

/// Fused single-pass solve: fills rates_out[i] = (1/t_i)/S * R and returns
/// {S, R^2/S}.  This is the allocation-free kernel entry point — no heap
/// traffic, \p rates_out must already have types.size() slots.  Both
/// pr_allocate and pr_optimal_latency reduce to it, so the inverse sum is
/// accumulated exactly once however many PR quantities a round needs.
PrSolve pr_allocate_into(std::span<const double> types, double arrival_rate,
                         std::span<double> rates_out);

/// Closed-form PR allocation.  Requires positive types and arrival rate.
[[nodiscard]] model::Allocation pr_allocate(std::span<const double> types,
                                            double arrival_rate);

/// Closed-form optimal total latency R^2 / sum(1/t_j) (paper eq. (4)).
[[nodiscard]] double pr_optimal_latency(std::span<const double> types,
                                        double arrival_rate);

/// All n leave-one-out optima in O(n) total: from eq. (4),
///
///     L_{-i} = R^2 / (S - 1/t_i)   with   S = sum_j 1/t_j,
///
/// so one pass accumulates S and a second reads off every subsystem optimum
/// — the quadratic blow-up of re-solving n subsystems never materialises.
/// Requires at least two computers (removing the only one is undefined).
[[nodiscard]] std::vector<double> pr_leave_one_out_latencies(
    std::span<const double> types, double arrival_rate);

/// Allocation-free variant writing into \p out (must have types.size()
/// slots).
void pr_leave_one_out_into(std::span<const double> types, double arrival_rate,
                           std::span<double> out);

/// Leave-one-out optima when S = sum_j 1/t_j is already known (e.g. from
/// pr_allocate_into in the same round): skips the accumulation pass.  Each
/// rest is pr_rest_at's, so an agent holding almost all of S gets its rest
/// summed from the others rather than cancelled out of S.
void pr_leave_one_out_from_sum(double inverse_sum,
                               std::span<const double> types,
                               double arrival_rate, std::span<double> out);

/// Allocator-interface wrapper around pr_allocate.
///
/// Exact (optimal) for the LinearFamily; for other families it still returns
/// the proportional split, which is what a system running the paper's
/// protocol on the wrong model would do — useful in ablations, but the
/// generic ConvexAllocator should be preferred off the linear path.
class PRAllocator final : public Allocator {
 public:
  void allocate_into(const model::LatencyFamily& family,
                     std::span<const double> types, double arrival_rate,
                     std::vector<double>& rates) const override;
  [[nodiscard]] double optimal_latency(const model::LatencyFamily& family,
                                       std::span<const double> types,
                                       double arrival_rate) const override;
  void leave_one_out_into(const model::LatencyFamily& family,
                          std::span<const double> types, double arrival_rate,
                          std::vector<double>& out) const override;
  [[nodiscard]] std::string name() const override { return "pr"; }
};

}  // namespace lbmv::alloc
