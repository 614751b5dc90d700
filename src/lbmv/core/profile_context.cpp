#include "lbmv/core/profile_context.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/grid_kernels.h"
#include "lbmv/core/rule_terms.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

LinearPrProfileContext::LinearPrProfileContext(PaymentRule rule,
                                               double arrival_rate,
                                               model::BidProfile base)
    : ProfileUtilityContext(rule, arrival_rate, std::move(base)) {
  rebuild();
}

namespace {

/// The linear family's terms (rule_terms.h) for a deviation to (bid,
/// execution), from the agent's Rest; T is double (the scalar query) or
/// util::simd::DVec (the sweep).  S' = S_rest + 1/b, x = R (1/b) / S',
/// L(x, b) = R^2/S', L(x, t~) = (R/S')^2 W' with W' = W_rest + e/b^2,
/// written R/S' (R/S' W_rest) + e x^2: a tiny bid's 1/b^2 overflows while
/// x stays finite, and an opponent holding almost all of S leaves (R/S')^2
/// below the double range while R/S' W_rest is not.
template <class T>
struct LinearDeviation {
  const LinearPrProfileContext::Rest& rest;
  T bid;
  double execution;
  T inv = 1.0 / bid;
  T s = rest.s_rest + inv;
  T x = rest.r * inv / s;

  T exec_cost() const { return execution * (x * x); }
  T bid_cost() const { return bid * (x * x); }
  double loo() const { return rest.l_rest; }
  T actual() const {
    const T rs = rest.r / s;
    return rs * (rs * rest.w_rest) + exec_cost();
  }
  T reported() const { return rest.rr / s; }
  // The tail depends only on S_rest: slow execution goes unpunished.
  T tail_comp() const { return bid * (x * x); }
  T tail() const { return archer_tardos_tail(bid, rest.s_rest, rest.rr); }
};

/// A non-finite closed-form utility (1/b or (R/S')^2 W' past the double
/// range, e.g. at a subnormal bid) is no answer: name the query instead.
[[noreturn]] void throw_non_finite(std::size_t agent, double bid,
                                   double execution) {
  std::ostringstream os;
  os << "linear-PR deviation utility is not finite: agent " << agent
     << " at bid " << bid << ", execution " << execution;
  throw util::PreconditionError(os.str());
}

}  // namespace

LinearPrProfileContext::Rest LinearPrProfileContext::rest_of(
    std::size_t agent) const {
  const double r = arrival_rate();
  const model::BidProfile& p = profile();
  const double old_inv = 1.0 / p.bids[agent];
  double s_rest = s_ - old_inv;
  double w_rest = w_ - p.executions[agent] * old_inv * old_inv;
  if (agent == top_ && alloc::pr_rest_cancels(s_, old_inv)) {
    // The agent holds almost all of S, so the subtraction cancelled (only
    // one agent can): read its rest, summed without it by rebuild().
    s_rest = s_without_top_;
    w_rest = w_without_top_;
  }
  return Rest{r, r * r, s_rest, r * r / s_rest, w_rest};
}

// Kept out of line: the sweep's scalar fallback then calls this one copy,
// and the rule dispatch below inlines here once.  Inlined into the sweeps,
// the dispatch stayed a call and each query took about a third longer
// (GCC 12, -O3).
[[gnu::noinline]] double LinearPrProfileContext::deviation_utility(
    std::size_t agent, double bid, double execution) const {
  const LinearDeviation<double> d{rest_of(agent), bid, execution};
  return with_payment_rule(rule(), [&](auto r) {
    const double u = rule_terms(r, d).utility;
    if (!std::isfinite(u)) throw_non_finite(agent, bid, execution);
    return u;
  });
}

void LinearPrProfileContext::sweep(std::size_t agent,
                                   std::span<const double> bids,
                                   double execution, double* out,
                                   GridBest* best) const {
  const Rest rest = rest_of(agent);
  with_payment_rule(rule(), [&](auto r) {
    lane_sweep(bids, out, best,
               [&](double b) { return checked_utility(agent, b, execution); },
               [&](util::simd::DVec b) {
                 const LinearDeviation<util::simd::DVec> d{rest, b, execution};
                 return rule_terms(r, d).utility;
               });
  });
}

void LinearPrProfileContext::rebuild() {
  const model::BidProfile& p = profile();
  s_ = 0.0;
  w_ = 0.0;
  s_without_top_ = 0.0;
  w_without_top_ = 0.0;
  top_ = 0;
  double top_inv = 0.0;
  double top_weight = 0.0;
  for (std::size_t j = 0; j < p.size(); ++j) {
    double inv = 1.0 / p.bids[j];
    double weight = p.executions[j] * inv * inv;
    s_ += inv;
    w_ += weight;
    // Every term but the largest 1/b_j's: a term enters when a larger one
    // displaces it, or at once if it is not the largest so far.
    if (inv > top_inv) {
      std::swap(inv, top_inv);
      std::swap(weight, top_weight);
      top_ = j;
    }
    s_without_top_ += inv;
    w_without_top_ += weight;
  }
}

}  // namespace lbmv::core
