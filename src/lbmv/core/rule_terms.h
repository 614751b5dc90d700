#pragma once

/// \file rule_terms.h
/// The payment rules, written once (DESIGN.md §12–§14).
///
/// A family supplies an agent's terms through accessors — loo() = L_{-i},
/// actual() = L(x, t~), reported() = L(x, b), bid_cost() and exec_cost()
/// (its cost at its bid and at its execution value) and, on the linear
/// family only, tail_comp() = b x^2 and tail() = Integral_b^inf x(u)^2 du
/// — and rule_terms prices them, P_i = C_i + B_i:
///
///   comp-bonus  C = cost at the basis, B = L_{-i} - L(x, t~), P = C + B
///   VCG         C = cost at b, B = L_{-i} - L(x, b),
///               P = L_{-i} - (L(x, b) - C)
///   A–T         C = b x^2, B = tail, P = C + B
///   no-payment  no transfers
///
/// with V = -exec_cost() and U = P - exec_cost(), except that under
/// comp-bonus at the execution basis C cancels V and U = B exactly (the
/// Theorem 3.1 argument).  A rule calls only the accessors it reads: a
/// fused round has no leave-one-out plane under no-payment, and the linear
/// engine's loo() also accumulates its cancellation guard.  T is double (a
/// context's utility()) or util::simd::DVec (a fused round's publish, a
/// context's sweep), with the same IEEE operation per lane.

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "lbmv/core/mechanism.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {

/// Whether \p rule reads the leave-one-out optimum L_{-i} (the comp-bonus
/// rules and VCG): which planes a round or context builds, and which
/// rules the leave-one-out cancellation guard applies to.
[[nodiscard]] constexpr bool reads_leave_one_out(PaymentRule rule) {
  return rule == PaymentRule::kCompBonusExecution ||
         rule == PaymentRule::kCompBonusBid || rule == PaymentRule::kVcg;
}

/// One agent's transfers and payoff under a rule.
template <class T>
struct RuleRecord {
  T compensation{}, bonus{}, payment{}, valuation{}, utility{};
};

/// Rule R's record on the terms \p f.  A family without tail() never
/// serves kArcherTardos (engines and contexts reject it), which then
/// leaves it no transfers.
template <PaymentRule R, class Terms>
[[nodiscard]] auto rule_terms(std::integral_constant<PaymentRule, R>,
                              const Terms& f) {
  const auto cost = f.exec_cost();
  RuleRecord<std::remove_const_t<decltype(cost)>> r;
  r.valuation = -cost;
  r.utility = -cost;
  if constexpr (R == PaymentRule::kCompBonusExecution) {
    r.compensation = cost;
    r.bonus = f.loo() - f.actual();
    r.payment = r.compensation + r.bonus;
    r.utility = r.bonus;
    return r;
  } else if constexpr (R == PaymentRule::kCompBonusBid) {
    r.compensation = f.bid_cost();
    r.bonus = f.loo() - f.actual();
    r.payment = r.compensation + r.bonus;
  } else if constexpr (R == PaymentRule::kVcg) {
    const auto loo = f.loo();
    const auto reported = f.reported();
    r.compensation = f.bid_cost();
    r.bonus = loo - reported;
    r.payment = loo - (reported - r.compensation);
  } else if constexpr (R == PaymentRule::kArcherTardos &&
                       requires { f.tail(); }) {
    r.compensation = f.tail_comp();
    r.bonus = f.tail();
    r.payment = r.compensation + r.bonus;
  } else {
    return r;
  }
  r.utility = r.payment - cost;
  return r;
}

/// rule_terms' utility under a runtime rule: a context's scalar query.
template <class Terms>
[[nodiscard]] double rule_utility(PaymentRule rule, const Terms& f) {
  return with_payment_rule(
      rule, [&](auto r) { return rule_terms(r, f).utility; });
}

/// The publish loop of both fused round engines: \p n agents under rule R
/// into \p agents (and their rates into \p x_out unless null), four per
/// step through util::simd::store_records6.  family(lanes) returns one
/// step's terms plus its rate vector x, loading planes through
/// util::simd::for_each_block's lanes(plane, pad); the last partial step
/// stores only its real lanes.  Returns whether every payment and utility
/// is finite, which covers the record: a non-finite C or B makes P
/// non-finite, and a non-finite cost (or x) makes C and so P non-finite
/// under comp-bonus at the execution basis, and U = P - cost otherwise.
/// Always inlined: the engine's planes, splatted scalars and guard mask are
/// then its own locals and stay in registers across the record stores,
/// which may alias any double.
template <PaymentRule R, class Family>
[[nodiscard, gnu::always_inline]] inline bool publish_block(
    std::integral_constant<PaymentRule, R> rule, std::size_t n,
    const Family& family, AgentOutcome* agents, double* x_out) {
  namespace v = util::simd;
  v::DVec finite = v::zero();
  v::for_each_block(n, [&](std::size_t i, std::size_t count, auto lanes) {
    const auto f = family(lanes);
    const RuleRecord<v::DVec> r = rule_terms(rule, f);
    finite = v::accumulate_finite(finite, r.payment);
    finite = v::accumulate_finite(finite, r.utility);
    if (x_out != nullptr) v::store_first(x_out + i, f.x, count);
    const auto store = [&](AgentOutcome* dst) {
      v::store_records6(reinterpret_cast<double*>(dst), f.x, r.compensation,
                        r.bonus, r.payment, r.valuation, r.utility);
    };
    if (count == v::kLanes) {
      store(agents + i);
    } else {
      AgentOutcome rows[v::kLanes];
      store(rows);
      std::copy(rows, rows + count, agents + i);
    }
  });
  return v::hsum(finite) == 0.0;
}

}  // namespace lbmv::core
