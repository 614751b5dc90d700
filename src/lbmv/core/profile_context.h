#pragma once

/// \file profile_context.h
/// Closed-form ProfileUtilityContext for the paper's setting: linear
/// latencies allocated by the PR algorithm.
///
/// With l_j(x) = b_j * x the PR allocation and the total latency depend on
/// the profile only through two running sums,
///
///   S = sum_j 1/b_j,            W = sum_j t~_j / b_j^2,
///
/// giving x_j = R/(b_j S), reported latency L(x, b) = R^2/S and verified
/// latency L(x, t~) = (R/S)^2 W.  A unilateral deviation of agent i to
/// (b, e) is the O(1) update
///
///   S' = S - 1/b_i + 1/b,       W' = W - t~_i/b_i^2 + e/b^2,
///
/// from which every payment rule built on leave-one-out optima follows in
/// O(1) as well, because L_{-i} = R^2/(S - 1/b_i) (DESIGN.md §10).
///
/// The factory below serves all five PaymentRules (comp-bonus at either
/// compensation basis, VCG, no-payment, and the Archer–Tardos baseline via
/// its closed-form payment tail).  Anything
/// else — non-linear families, non-PR allocators — returns nullptr and the
/// caller falls back to Mechanism::run per deviation.
///
/// The concrete LinearPrProfileContext is exported (not hidden behind the
/// factory) so the lane-parallel deviation-grid kernels (grid_kernels.h,
/// DESIGN.md §13) can read the cached sums and evaluate four candidate bids
/// per instruction against the same frozen profile.

#include <memory>
#include <vector>

#include "lbmv/alloc/allocator.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"

namespace lbmv::core {

/// The closed-form context (file comment above).  Maintains the committed
/// profile plus the two running sums S and W; every query is a constant
/// number of flops and every commit is an O(1) delta.  Committed deltas are
/// re-summed from scratch every max(64, n) commits so floating point drift
/// stays far below the 1e-9 differential-test tolerance while the amortised
/// commit cost stays O(1).
///
/// The accessors (rule/arrival_rate/s/w) exist for the grid kernels, which
/// replicate utility()'s exact IEEE operand order lane-wise; utility()
/// itself stays the scalar oracle the differential suite holds them to.
class LinearPrProfileContext final : public ProfileUtilityContext {
 public:
  LinearPrProfileContext(PaymentRule rule, double arrival_rate,
                         model::BidProfile base);

  [[nodiscard]] double utility(std::size_t agent, double bid,
                               double execution) const override;
  void commit(std::size_t agent, double bid, double execution) override;
  void outcome_into(MechanismOutcome& out) const override;
  [[nodiscard]] double actual_latency() const override;
  [[nodiscard]] const model::BidProfile& profile() const override {
    return profile_;
  }

  [[nodiscard]] PaymentRule rule() const { return rule_; }
  [[nodiscard]] double arrival_rate() const { return arrival_rate_; }
  /// Cached S = sum_j 1/b_j at the committed profile.
  [[nodiscard]] double s() const { return s_; }
  /// Cached W = sum_j t~_j / b_j^2 at the committed profile.
  [[nodiscard]] double w() const { return w_; }

 private:
  /// Verified total latency after agent i deviates: (R/S')^2 W' with
  /// W' = W - t~_i/b_i^2 + e/b^2.
  [[nodiscard]] double actual_after(std::size_t agent, double s,
                                    double inv_bid, double execution) const;
  void rebuild();

  PaymentRule rule_;
  double arrival_rate_;
  model::BidProfile profile_;
  double s_ = 0.0;
  double w_ = 0.0;
  std::size_t rebuild_period_ = 64;
  std::size_t commits_since_rebuild_ = 0;
};

/// Build the closed-form context, or nullptr unless \p family is a
/// LinearFamily and \p allocator is a PRAllocator (checked dynamically,
/// mirroring the audit fast-path gate).  \p base is copied.
[[nodiscard]] std::unique_ptr<ProfileUtilityContext>
make_linear_pr_profile_context(PaymentRule rule,
                               const model::LatencyFamily& family,
                               const alloc::Allocator& allocator,
                               double arrival_rate,
                               const model::BidProfile& base);

}  // namespace lbmv::core
