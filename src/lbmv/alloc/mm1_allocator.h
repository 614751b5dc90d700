#pragma once

/// \file mm1_allocator.h
/// Closed-form optimal allocation for M/M/1 computers.
///
/// Extension beyond the paper: its companion (Grosu & Chronopoulos,
/// "Algorithmic Mechanism Design for Load Balancing in Distributed Systems",
/// Cluster 2002) models computers as M/M/1 queues with expected response
/// time 1/(mu_i - x_i).  Minimising sum_i x_i/(mu_i - x_i) subject to
/// sum x_i = R gives the square-root allocation
///
///     x_i = mu_i - sqrt(mu_i) * (sum_A mu_j - R) / sum_A sqrt(mu_j)
///
/// over the active set A = { i : sqrt(mu_i) > (sum_A mu_j - R)/sum_A sqrt(mu_j) },
/// found by iteratively dropping computers that would receive negative load.
///
/// With a = sqrt(mu) the per-computer queue length collapses to
/// x_i/(mu_i - x_i) = a_i/c - 1 for active computers, so the optimal total
/// latency is (sum_A a_j)/c - |A|.
///
/// Active-set search.  Sort by decreasing mu and write c(m) for the value
/// of c over the m fastest computers.  The active set is the largest prefix
/// m with a_(m) > c(m), and that predicate is monotone in m: c(m+1) is a
/// weighted mean of c(m) and a_(m+1), so a_(m+1) > c(m+1) <=> a_(m+1) > c(m),
/// and once a computer is too slow every slower one is too.  One sort plus
/// prefix sums of mu and a therefore find the active set by binary search;
/// when every computer clears c over the whole set no sort is needed.
///
/// Leave-one-out (mm1_leave_one_out_into) reuses that sorted prefix.  An
/// idle computer's departure changes nothing, so L_{-i} = L*.  Removing an
/// active computer only raises the load on the rest, so the rest active
/// set keeps the other active computers and may gain idle ones.  Its
/// prefix sums are those of the full order minus (mu_i, a_i) past the
/// skipped slot, and the same monotone predicate, galloping up from the
/// old active count, finds it in O(log n): O(n log n) in all instead of n
/// full re-solves, and O(n) when every computer is active.
///
/// A unilateral deviation is the same edit plus one insertion: computer i
/// leaves its slot and re-enters at the rank of its new rate
/// (mm1_deviation_solve, which the M/M/1 profile context queries).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/allocator.h"

namespace lbmv::alloc {

/// Minimum fraction of the remaining capacity sum the leave-one-out slack
/// sum_{j != i} mu_j - R must retain (mirroring kLeaveOneOutMinRelativeGap
/// for the PR closed form): below this the subtraction has cancelled ~9
/// decimal digits and the closed form would return noise, so such profiles
/// fail a typed PreconditionError naming the dominant agent instead.
inline constexpr double kMm1MinRelativeSlack = 1e-9;

/// Everything one M/M/1 closed-form solve derives.
struct Mm1Solve {
  double c = 0.0;            ///< (sum_A mu_j - R) / sum_A sqrt(mu_j)
  std::size_t active = 0;    ///< |A|: computers receiving positive load
  double sum_sqrt_active = 0.0;  ///< sum_A sqrt(mu_j)
  double optimal_latency = 0.0;  ///< min sum_i x_i/(mu_i - x_i)
};

/// The sorted prefix one solve leaves behind for the leave-one-out pass
/// (left empty when every computer is active, which needs no order).
/// Planes grow to the largest n seen and are reused, so a warm caller's
/// solves allocate nothing.
struct Mm1Planes {
  std::vector<std::size_t> order;  ///< computer indices by decreasing mu
  std::vector<double> a;           ///< a[k] = sqrt(mu_{order[k]})
  std::vector<double> prefix_mu;   ///< prefix_mu[m] = sum of the m fastest mu
  std::vector<double> prefix_a;    ///< prefix_a[m] = sum of the m fastest a
};

/// Sort \p mus by decreasing rate (ties by index) into \p planes and fill
/// its prefix sums.  mm1_solve_into calls this only when some computer is
/// idle; callers that query edited orders call it on all-active profiles.
void mm1_sort_into(std::span<const double> mus, Mm1Planes& planes);

/// What mm1_deviation_solve derives.
struct Mm1Deviation {
  Mm1Solve solve;                ///< the deviated profile's optimum
  bool deviator_active = false;  ///< whether the deviator receives load
};

/// The optimum after one unilateral deviation, against the sorted prefix
/// \p planes of the committed rates (left by mm1_sort_into): computer
/// \p agent, in sorted slot \p slot at rate \p old_mu, leaves its slot and
/// re-enters at the rank of rate \p mu (ties by index, as in the full
/// sort).  Every prefix sum of that edited order is an O(1) read of the
/// full planes adjusted past the two edits, so the active-set search costs
/// O(log n).  The leave-one-out is the same edit with nothing inserted and
/// shares its skip-slot arithmetic.  Requires mu > 0 and the deviated
/// total rate above \p arrival_rate; no checks are made.
[[nodiscard]] Mm1Deviation mm1_deviation_solve(const Mm1Planes& planes,
                                               std::size_t agent,
                                               std::size_t slot, double old_mu,
                                               double mu, double arrival_rate);

/// Fused solve: fills rates_out[i] (mus.size() slots, zero for dropped
/// computers) and returns the solve summary including the closed-form
/// optimum.  Throws PreconditionError when arrival_rate >= sum(mus).
Mm1Solve mm1_solve_into(std::span<const double> mus, double arrival_rate,
                        std::span<double> rates_out);

/// Same solve, leaving the sorted prefix in \p planes for
/// mm1_leave_one_out_into.
Mm1Solve mm1_solve_into(std::span<const double> mus, double arrival_rate,
                        std::span<double> rates_out, Mm1Planes& planes);

/// Every leave-one-out optimum L_{-i} (out[i], mus.size() slots) from the
/// solve \p full that mm1_solve_into left in \p planes for the same mus and
/// arrival rate.  Requires n >= 2.  Throws PreconditionError naming the
/// first computer (in index order) whose rest set cannot absorb the
/// arrival rate, or sits within kMm1MinRelativeSlack of saturation.
void mm1_leave_one_out_into(std::span<const double> mus, double arrival_rate,
                            const Mm1Solve& full, const Mm1Planes& planes,
                            std::span<double> out);

/// Throw the typed M/M/1 domain error for computer \p agent, assigned load
/// \p x against (execution) service rate \p mu outside 0 <= x < mu.
[[noreturn]] void throw_mm1_domain_error(std::size_t agent, double x,
                                         double mu);

/// The M/M/1 capacity check for computer \p agent: its load \p x must
/// satisfy 0 <= x < \p mu_e, the verified (execution) service rate, else
/// throw_mm1_domain_error.  One check site, so both rounds and the
/// deviation context raise the same diagnostic.
inline void require_mm1_capacity(std::size_t agent, double x, double mu_e) {
  if (!(x >= 0.0 && x < mu_e)) throw_mm1_domain_error(agent, x, mu_e);
}

/// Closed-form allocation for service rates \p mus.  Requires
/// 0 < arrival_rate < sum(mus).
[[nodiscard]] model::Allocation mm1_allocate(std::span<const double> mus,
                                             double arrival_rate);

/// Closed-form optimal total latency min sum_i x_i/(mu_i - x_i).
[[nodiscard]] double mm1_optimal_latency(std::span<const double> mus,
                                         double arrival_rate);

/// Allocator-interface wrapper.  Interprets types as mean service times
/// theta_i = 1/mu_i (matching MM1Family); rejects other families.  Exact,
/// so the compensation-and-bonus truthfulness construction applies, and
/// leave_one_out_into is mm1_leave_one_out_into: O(n log n) per vector
/// instead of n O(n log n) re-solves.
class MM1Allocator final : public Allocator {
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
  [[nodiscard]] std::string name() const override { return "mm1"; }
};

}  // namespace lbmv::alloc
