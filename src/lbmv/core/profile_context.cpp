#include "lbmv/core/profile_context.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lbmv/core/grid_kernels.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

LinearPrProfileContext::LinearPrProfileContext(PaymentRule rule,
                                               double arrival_rate,
                                               model::BidProfile base)
    : ProfileUtilityContext(rule, arrival_rate, std::move(base)) {
  rebuild_period_ = std::max<std::size_t>(64, profile().size());
  rebuild();
}

namespace {

/// Utility of a deviation to (bid, execution) under rule R, from the
/// agent's Rest.  T is double (utility()) or util::simd::DVec (the sweep):
/// one expression text, the same IEEE operation per lane.
///   S' = S_rest + 1/b,  x = R (1/b) / S',  L' = (R/S')^2 W',
///   W' = W_rest + e/b^2,  L_{-i} = R^2 / S_rest.
template <PaymentRule R, class T>
T deviation_utility(std::integral_constant<PaymentRule, R>,
                    const LinearPrProfileContext::Rest& rest, T bid,
                    double execution) {
  const T inv = 1.0 / bid;
  const T s = rest.s_rest + inv;
  const T x = rest.r * inv / s;
  const T x2 = x * x;
  if constexpr (R == PaymentRule::kCompBonusExecution ||
                R == PaymentRule::kCompBonusBid) {
    const T rs = rest.r / s;
    const T gap = rest.l_rest - rs * rs * (rest.w_rest + execution * inv * inv);
    if constexpr (R == PaymentRule::kCompBonusExecution) {
      // C_i = e x^2 cancels the valuation -e x^2, so U = L_{-i} - L'.
      return gap;
    } else {
      return bid * x2 + gap - execution * x2;
    }
  } else if constexpr (R == PaymentRule::kVcg) {
    // Others' reported cost at the new bids: sum_{j!=i} b_j x_j'^2 =
    // (R/S')^2 S_rest, so the Clarke payment is L_{-i} - (R^2/S' - b x^2).
    return rest.l_rest - rest.rr / s + bid * x2 - execution * x2;
  } else if constexpr (R == PaymentRule::kArcherTardos) {
    // P_i = b x^2 + Integral_{b}^{inf} x_i(u)^2 du; the tail depends only
    // on S_rest, so truth-telling in bids is dominant but slow execution
    // (e > t) goes unpunished — the verification-free baseline.
    return bid * x2 + rest.rr / (rest.s_rest * (1.0 + bid * rest.s_rest)) -
           execution * x2;
  } else {
    return -execution * x2;
  }
}

}  // namespace

LinearPrProfileContext::Rest LinearPrProfileContext::rest_of(
    std::size_t agent) const {
  const double r = arrival_rate();
  const double old_inv = 1.0 / profile().bids[agent];
  const double s_rest = s_ - old_inv;
  return Rest{r, r * r, s_rest, r * r / s_rest,
              w_ - profile().executions[agent] * old_inv * old_inv};
}

double LinearPrProfileContext::utility(std::size_t agent, double bid,
                                       double execution) const {
  model::require_valid_deviation(agent, profile().size(), bid, execution);
  const Rest rest = rest_of(agent);
  return with_payment_rule(rule(), [&](auto r) {
    return deviation_utility(r, rest, bid, execution);
  });
}

void LinearPrProfileContext::sweep(std::size_t agent,
                                   std::span<const double> bids,
                                   double execution, double* out,
                                   GridBest* best) const {
  const Rest rest = rest_of(agent);
  with_payment_rule(rule(), [&](auto r) {
    lane_sweep(*this, agent, bids, execution, out, best,
               [&](util::simd::DVec b, util::simd::DVec&) {
                 return deviation_utility(r, rest, b, execution);
               });
  });
}

void LinearPrProfileContext::update_entries(std::span<const BidDelta> deltas) {
  for (const BidDelta& d : deltas) {
    const double old_bid = profile().bids[d.agent];
    const double old_exec = profile().executions[d.agent];
    s_ += 1.0 / d.bid - 1.0 / old_bid;
    w_ += d.execution / (d.bid * d.bid) - old_exec / (old_bid * old_bid);
    write_entry(d);
    if (++commits_since_rebuild_ >= rebuild_period_) rebuild();
  }
}

void LinearPrProfileContext::rebuild() {
  const double incremental_s = s_;
  const double incremental_w = w_;
  const bool periodic = commits_since_rebuild_ > 0;
  s_ = 0.0;
  w_ = 0.0;
  const model::BidProfile& p = profile();
  for (std::size_t j = 0; j < p.size(); ++j) {
    const double inv = 1.0 / p.bids[j];
    s_ += inv;
    w_ += p.executions[j] * inv * inv;
  }
  if (periodic && obs::enabled()) {
    // How far the O(1) commit deltas drifted from the exact sums over one
    // rebuild period — the PR-4 drift bound, observed live instead of
    // assumed (the differential suite holds it below 1e-9; the monitor
    // flags any round where accumulated cancellation breaks that).
    const double drift_s = std::fabs(incremental_s - s_) / std::fabs(s_);
    const double drift_w =
        std::fabs(incremental_w - w_) / std::max(std::fabs(w_), 1e-300);
    obs::Monitors::get().context_drift.check(
        std::max(drift_s, drift_w),
        {{"n", static_cast<double>(p.size())},
         {"drift_s", drift_s},
         {"drift_w", drift_w}});
  }
  commits_since_rebuild_ = 0;
}

}  // namespace lbmv::core
