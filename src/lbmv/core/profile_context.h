#pragma once

/// \file profile_context.h
/// Closed-form ProfileUtilityContext for the paper's setting: linear
/// latencies allocated by the PR algorithm, for all five PaymentRules.
///
/// The PR allocation and both latency totals depend on the profile only
/// through S = sum_j 1/b_j and W = sum_j t~_j / b_j^2: x_j = R/(b_j S),
/// L(x, b) = R^2/S and L(x, t~) = (R/S)^2 W.  A unilateral deviation of
/// agent i to (b, e) is the O(1) update S' = S - 1/b_i + 1/b,
/// W' = W - t~_i/b_i^2 + e/b^2, and L_{-i} = R^2/(S - 1/b_i), so every term
/// a payment rule reads is O(1) too (DESIGN.md §10).
///
/// That closed form is written once, as a template over the value type,
/// and supplies the terms to rule_terms.h's rule_terms — the one
/// definition of the payment rules, which the fused round publishes
/// through too.  utility() evaluates it on one double and the sweep on
/// four candidate bids per instruction through the lane driver
/// (grid_kernels.h, DESIGN.md §13), with the same bits.  A deviation the
/// round at the deviated profile rejects is rejected here too, with the
/// round's diagnostic: every agent's rest at S' must keep the leave-one-out
/// cancellation guard's share of S' under the rules that read L_{-i}, and
/// be positive under Archer–Tardos.  Only two agents can fail that: the
/// deviator (rest S' - 1/b) and the opponent with the largest 1/b_j (rest
/// S' - 1/b_j), so the context tracks the two largest committed inverse
/// bids.  Where the closed form leaves the double range (tiny or subnormal
/// bids overflow 1/b or (R/S')^2 W'), utility() throws a PreconditionError
/// naming the agent and the bid.  A sweep with a lane of either kind is
/// served by utility()'s scalar form.  The committed round's outcome is
/// Mechanism::run_into's.

#include <cstddef>
#include <span>

#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"

namespace lbmv::core {

/// The closed-form context (file comment above).  Its state — the sums S
/// and W and the two largest inverse bids — is a function of profile()
/// alone: rebuild() derives all three in one O(n) pass, once per commit
/// batch.  Every query is a constant number of flops, except for the one
/// agent that holds almost all of S: S - 1/b_i cancels for it, so its rest
/// is summed from the profile instead (O(n), on that agent's queries only).
///
/// utilities_into and best_response run the closed form four candidates per
/// instruction (lane_sweeps() is true).
class LinearPrProfileContext final : public ProfileUtilityContext {
 public:
  LinearPrProfileContext(PaymentRule rule, double arrival_rate,
                         model::BidProfile base);

  [[nodiscard]] bool lane_sweeps() const override { return true; }

  /// Everything a deviation by one agent reads from the committed sums.
  struct Rest {
    double r;       ///< arrival rate R
    double rr;      ///< R^2
    double s_rest;  ///< S - 1/b_i
    double l_rest;  ///< L_{-i} = R^2 / (S - 1/b_i)
    double w_rest;  ///< W - t~_i / b_i^2
    double inv_fastest;   ///< the largest 1/b_j over the others j != i
    std::size_t fastest;  ///< that opponent's index
  };

 protected:
  [[nodiscard]] double deviation_utility(std::size_t agent, double bid,
                                         double execution) const override;
  void sweep(std::size_t agent, std::span<const double> bids,
             double execution, double* out, GridBest* best) const override;
  void rebuild() override;

 private:
  [[nodiscard]] Rest rest_of(std::size_t agent) const;

  /// One agent's inverse bid, as ranked among the fastest.
  struct Fastest {
    double inv = 0.0;
    std::size_t agent = 0;
  };

  double s_ = 0.0;
  double w_ = 0.0;
  Fastest fastest_[2];  ///< the two largest 1/b_j, largest first
};

}  // namespace lbmv::core
