#include "lbmv/core/profile_context.h"

#include <cmath>
#include <sstream>
#include <tuple>
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
/// L(x, b) = R^2/S', L(x, t~) = (R/S')^2 W', W' = W_rest + e/b^2.
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
    return rs * rs * (rest.w_rest + execution * inv * inv);
  }
  T reported() const { return rest.rr / s; }
  // The tail depends only on S_rest: slow execution goes unpunished.
  T tail_comp() const { return bid * (x * x); }
  T tail() const { return archer_tardos_tail(bid, rest.s_rest, rest.rr); }
};

/// The share of S' that every agent's rest at the deviated profile must
/// exceed for the round to price rule R: the leave-one-out cancellation
/// guard's under a rule that reads L_{-i} (alloc::require_leave_one_out_gap),
/// none — a positive rest — under Archer–Tardos (require_rest_capacity).
/// No-payment reads neither.
template <PaymentRule R>
constexpr double kRestGap =
    reads_leave_one_out(R) ? alloc::kLeaveOneOutMinRelativeGap : 0.0;
template <PaymentRule R>
constexpr bool kRestGuarded =
    reads_leave_one_out(R) || R == PaymentRule::kArcherTardos;

/// A non-finite closed-form utility (1/b or (R/S')^2 W' past the double
/// range, e.g. at a subnormal bid) is no answer: name the query instead.
[[noreturn]] void throw_non_finite(std::size_t agent, double bid,
                                   double execution) {
  std::ostringstream os;
  os << "linear-PR deviation utility is not finite: agent " << agent
     << " at bid " << bid << ", execution " << execution;
  throw util::PreconditionError(os.str());
}

/// S and W over every agent but \p agent, summed from the profile: the
/// cold path of rest_of, kept out of line so the hot query stays small.
[[gnu::cold, gnu::noinline]] std::pair<double, double> sum_rest(
    const model::BidProfile& p, std::size_t agent) {
  double s_rest = 0.0;
  double w_rest = 0.0;
  for (std::size_t j = 0; j < p.size(); ++j) {
    if (j == agent) continue;
    const double inv = 1.0 / p.bids[j];
    s_rest += inv;
    w_rest += p.executions[j] * inv * inv;
  }
  return {s_rest, w_rest};
}

}  // namespace

LinearPrProfileContext::Rest LinearPrProfileContext::rest_of(
    std::size_t agent) const {
  const double r = arrival_rate();
  const model::BidProfile& p = profile();
  const double old_inv = 1.0 / p.bids[agent];
  double s_rest = s_ - old_inv;
  double w_rest = w_ - p.executions[agent] * old_inv * old_inv;
  if (!(s_rest > alloc::kLeaveOneOutMinRelativeGap * s_)) {
    // The agent holds almost all of S, so the subtraction cancelled (only
    // one agent can): sum its rest from the profile instead.
    std::tie(s_rest, w_rest) = sum_rest(p, agent);
  }
  const Fastest& opponent = fastest_[agent == fastest_[0].agent ? 1 : 0];
  return Rest{r,      r * r,        s_rest,        r * r / s_rest,
              w_rest, opponent.inv, opponent.agent};
}

// Kept out of line: the sweep's scalar fallback then calls this one copy,
// and the rule dispatch below inlines here once.  Inlined into the sweeps,
// the dispatch stayed a call and each query took about a third longer
// (GCC 12, -O3).
[[gnu::noinline]] double LinearPrProfileContext::deviation_utility(
    std::size_t agent, double bid, double execution) const {
  const LinearDeviation<double> d{rest_of(agent), bid, execution};
  return with_payment_rule(rule(), [&](auto r) {
    // The round's own guards first, so a deviation it rejects raises the
    // round's diagnostic: the deviator's rest, then the fastest opponent's.
    if constexpr (reads_leave_one_out(r)) {
      const double min_gap = d.s * kRestGap<r>;
      const std::size_t n = profile().size();
      alloc::require_leave_one_out_gap(d.s - d.inv, min_gap, agent, n);
      alloc::require_leave_one_out_gap(d.s - d.rest.inv_fastest, min_gap,
                                       d.rest.fastest, n);
    } else if constexpr (r == PaymentRule::kArcherTardos) {
      require_rest_capacity(d.s - d.inv, agent);
      require_rest_capacity(d.s - d.rest.inv_fastest, d.rest.fastest);
    }
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
               [&](util::simd::DVec b, util::simd::DVec& ok) {
                 namespace simd = util::simd;
                 const LinearDeviation<simd::DVec> d{rest, b, execution};
                 if constexpr (kRestGuarded<r>) {
                   // A lane the round's guards reject is the scalar form's
                   // to raise.
                   const simd::DVec min_gap = d.s * kRestGap<r>;
                   ok = simd::mask_and(
                       ok, simd::mask_and(
                               simd::mask_greater(d.s - d.inv, min_gap),
                               simd::mask_greater(d.s - rest.inv_fastest,
                                                  min_gap)));
                 }
                 return rule_terms(r, d).utility;
               });
  });
}

void LinearPrProfileContext::rebuild() {
  const model::BidProfile& p = profile();
  s_ = 0.0;
  w_ = 0.0;
  fastest_[0] = {};
  fastest_[1] = {};
  for (std::size_t j = 0; j < p.size(); ++j) {
    const double inv = 1.0 / p.bids[j];
    s_ += inv;
    w_ += p.executions[j] * inv * inv;
    if (inv > fastest_[0].inv) {
      fastest_[1] = fastest_[0];
      fastest_[0] = {inv, j};
    } else if (inv > fastest_[1].inv) {
      fastest_[1] = {inv, j};
    }
  }
}

}  // namespace lbmv::core
