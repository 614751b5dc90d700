#include "lbmv/core/profile_context.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/grid_kernels.h"
#include "lbmv/obs/monitor.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

LinearPrProfileContext::LinearPrProfileContext(PaymentRule rule,
                                               double arrival_rate,
                                               model::BidProfile base)
    : rule_(rule), arrival_rate_(arrival_rate), profile_(std::move(base)) {
  LBMV_REQUIRE(profile_.size() >= 2, "mechanisms require at least two agents");
  profile_.validate(profile_.size());
  LBMV_REQUIRE(arrival_rate_ > 0.0 && std::isfinite(arrival_rate_),
               "arrival rate must be positive and finite");
  rebuild_period_ = std::max<std::size_t>(64, profile_.size());
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
  const double r = arrival_rate_;
  const double old_inv = 1.0 / profile_.bids[agent];
  const double s_rest = s_ - old_inv;
  return Rest{r, r * r, s_rest, r * r / s_rest,
              w_ - profile_.executions[agent] * old_inv * old_inv};
}

double LinearPrProfileContext::utility(std::size_t agent, double bid,
                                       double execution) const {
  model::require_valid_deviation(agent, profile_.size(), bid, execution);
  const Rest rest = rest_of(agent);
  return with_payment_rule(rule_, [&](auto rule) {
    return deviation_utility(rule, rest, bid, execution);
  });
}

void LinearPrProfileContext::sweep(std::size_t agent,
                                   std::span<const double> bids,
                                   double execution, double* out,
                                   GridBest* best) const {
  const Rest rest = rest_of(agent);
  with_payment_rule(rule_, [&](auto rule) {
    lane_sweep(*this, agent, bids, execution, out, best,
               [&](util::simd::DVec b, util::simd::DVec&) {
                 return deviation_utility(rule, rest, b, execution);
               });
  });
}

void LinearPrProfileContext::commit(std::size_t agent, double bid,
                                    double execution) {
  model::require_valid_deviation(agent, profile_.size(), bid, execution);
  const double old_bid = profile_.bids[agent];
  const double old_exec = profile_.executions[agent];
  s_ += 1.0 / bid - 1.0 / old_bid;
  w_ += execution / (bid * bid) - old_exec / (old_bid * old_bid);
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  if (++commits_since_rebuild_ >= rebuild_period_) rebuild();
}

void LinearPrProfileContext::outcome_into(MechanismOutcome& out) const {
  const std::size_t n = profile_.size();
  const double r = arrival_rate_;
  const double rs = r / s_;
  const double actual = rs * rs * w_;
  const double reported = r * r / s_;

  std::vector<double> rates(n);
  for (std::size_t j = 0; j < n; ++j) {
    rates[j] = rs / profile_.bids[j];
  }
  out.allocation = model::Allocation(std::move(rates));
  out.actual_latency = actual;
  out.reported_latency = reported;
  out.agents.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    auto& agent = out.agents[j];
    const double b = profile_.bids[j];
    const double e = profile_.executions[j];
    const double x = rs / b;
    const double x2 = x * x;
    const double l_minus = r * r / (s_ - 1.0 / b);
    agent.allocation = x;
    agent.valuation = -e * x2;
    switch (rule_) {
      case PaymentRule::kCompBonusExecution:
        agent.compensation = e * x2;
        agent.bonus = l_minus - actual;
        break;
      case PaymentRule::kCompBonusBid:
        agent.compensation = b * x2;
        agent.bonus = l_minus - actual;
        break;
      case PaymentRule::kVcg:
        agent.compensation = b * x2;  // own reported cost
        agent.bonus = l_minus - reported;
        break;
      case PaymentRule::kNoPayment:
        agent.compensation = 0.0;
        agent.bonus = 0.0;
        break;
      case PaymentRule::kArcherTardos:
        agent.compensation = b * x2;
        agent.bonus =
            archer_tardos_tail_integral(b, s_ - 1.0 / b, r);
        break;
    }
    agent.payment = agent.compensation + agent.bonus;
    if (rule_ == PaymentRule::kNoPayment) agent.payment = 0.0;
    agent.utility = agent.payment + agent.valuation;
  }
}

double LinearPrProfileContext::actual_latency() const {
  const double rs = arrival_rate_ / s_;
  return rs * rs * w_;
}

void LinearPrProfileContext::rebuild() {
  const double incremental_s = s_;
  const double incremental_w = w_;
  const bool periodic = commits_since_rebuild_ > 0;
  s_ = 0.0;
  w_ = 0.0;
  for (std::size_t j = 0; j < profile_.size(); ++j) {
    const double inv = 1.0 / profile_.bids[j];
    s_ += inv;
    w_ += profile_.executions[j] * inv * inv;
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
        {{"n", static_cast<double>(profile_.size())},
         {"drift_s", drift_s},
         {"drift_w", drift_w}});
  }
  commits_since_rebuild_ = 0;
}

std::unique_ptr<ProfileUtilityContext> make_linear_pr_profile_context(
    PaymentRule rule, const model::LatencyFamily& family,
    const alloc::Allocator& allocator, double arrival_rate,
    const model::BidProfile& base) {
  // The closed forms are exactly the PR allocation on linear latencies; any
  // other allocator/family pairing must take the slow path.
  if (dynamic_cast<const model::LinearFamily*>(&family) == nullptr ||
      dynamic_cast<const alloc::PRAllocator*>(&allocator) == nullptr) {
    return nullptr;
  }
  return std::make_unique<LinearPrProfileContext>(rule, arrival_rate, base);
}

}  // namespace lbmv::core
