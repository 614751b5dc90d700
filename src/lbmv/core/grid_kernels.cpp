#include "lbmv/core/grid_kernels.h"

#include <cmath>
#include <limits>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/util/error.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {
namespace {

namespace simd = lbmv::util::simd;

/// Lane-constant state hoisted once per (agent, execution) sweep.  Every
/// scalar here is computed with the same expression — and therefore the
/// same IEEE result — as the corresponding subexpression of
/// LinearPrProfileContext::utility, so the lane arithmetic consuming them
/// reproduces the oracle bit-exactly.
struct SweepState {
  PaymentRule rule;
  double r;          ///< arrival rate
  double rr;         ///< r * r (the oracle recomputes it; products are exact-deterministic)
  double s_rest;     ///< S - 1/b_i
  double l_rest;     ///< r * r / s_rest = L_{-i}
  double w_rest;     ///< W - t~_i / b_i^2 (comp-bonus actual-latency delta)
  double execution;  ///< candidate execution value (lane-constant)
};

SweepState make_state(const LinearPrProfileContext& ctx, std::size_t agent,
                      double execution) {
  SweepState st;
  st.rule = ctx.rule();
  st.r = ctx.arrival_rate();
  st.rr = st.r * st.r;
  const double old_inv = 1.0 / ctx.profile().bids[agent];
  st.s_rest = ctx.s() - old_inv;
  st.l_rest = st.r * st.r / st.s_rest;
  st.w_rest = ctx.w() - ctx.profile().executions[agent] * old_inv * old_inv;
  st.execution = execution;
  return st;
}

/// Four candidate utilities per call.  The association of every expression
/// matches LinearPrProfileContext::utility line for line; no FMA, fixed
/// operand order, so both simd backends and the scalar oracle agree bitwise.
simd::DVec utilities4(const SweepState& st, simd::DVec b) {
  const simd::DVec one = simd::set1(1.0);
  const simd::DVec inv = simd::div(one, b);                       // 1/b
  const simd::DVec s = simd::add(simd::set1(st.s_rest), inv);     // s_rest + 1/b
  const simd::DVec x =
      simd::div(simd::mul(simd::set1(st.r), inv), s);             // r*inv/s
  const simd::DVec x2 = simd::mul(x, x);
  switch (st.rule) {
    case PaymentRule::kCompBonusExecution:
    case PaymentRule::kCompBonusBid: {
      // actual_after: w = (W - t~_i/b_i^2) + execution*inv*inv, then
      // (r/s)*(r/s)*w — the oracle's exact order.
      const simd::DVec w = simd::add(
          simd::set1(st.w_rest),
          simd::mul(simd::mul(simd::set1(st.execution), inv), inv));
      const simd::DVec rs = simd::div(simd::set1(st.r), s);
      const simd::DVec actual = simd::mul(simd::mul(rs, rs), w);
      const simd::DVec gap = simd::sub(simd::set1(st.l_rest), actual);
      if (st.rule == PaymentRule::kCompBonusExecution) return gap;
      // bid*x2 + (L_rest - actual) - execution*x2
      return simd::sub(simd::add(simd::mul(b, x2), gap),
                       simd::mul(simd::set1(st.execution), x2));
    }
    case PaymentRule::kVcg: {
      // (L_rest - r*r/s + bid*x2) - execution*x2
      const simd::DVec payment =
          simd::add(simd::sub(simd::set1(st.l_rest),
                              simd::div(simd::set1(st.rr), s)),
                    simd::mul(b, x2));
      return simd::sub(payment, simd::mul(simd::set1(st.execution), x2));
    }
    case PaymentRule::kNoPayment:
      // -execution * x2 (unary minus binds to execution in the oracle)
      return simd::mul(simd::set1(-st.execution), x2);
    case PaymentRule::kArcherTardos: {
      // (bid*x2 + rr/(s_rest*(1 + bid*s_rest))) - execution*x2
      const simd::DVec tail = simd::div(
          simd::set1(st.rr),
          simd::mul(simd::set1(st.s_rest),
                    simd::add(one, simd::mul(b, simd::set1(st.s_rest)))));
      return simd::sub(simd::add(simd::mul(b, x2), tail),
                       simd::mul(simd::set1(st.execution), x2));
    }
  }
  LBMV_ASSERT(false, "unreachable payment rule");
  return simd::zero();
}

/// All-ones lanes where the candidate bid is positive and finite (NaN fails
/// both ordered compares, +inf fails the second).
simd::DVec valid_mask(simd::DVec b) {
  const simd::DVec inf =
      simd::set1(std::numeric_limits<double>::infinity());
  return simd::mask_and(simd::mask_greater(b, simd::zero()),
                        simd::mask_greater(inf, b));
}

/// Single fused driver: utilities plane (when out != nullptr) and/or the
/// running (max, argmax) pair (when best != nullptr), with AND-accumulated
/// validity checked once at the end.
void sweep(const LinearPrProfileContext& ctx, std::size_t agent,
           std::span<const double> bids, double execution, double* out,
           GridBest* best) {
  LBMV_REQUIRE(agent < ctx.profile().size(), "agent index out of range");
  LBMV_REQUIRE(execution > 0.0 && std::isfinite(execution),
               "deviations must have positive finite bid and execution");
  const std::size_t size = bids.size();
  if (size == 0) return;

  const SweepState st = make_state(ctx, agent, execution);
  const double lane_offsets[simd::kLanes] = {0.0, 1.0, 2.0, 3.0};
  const simd::DVec base_idx = simd::load(lane_offsets);
  simd::DVec ok = simd::mask_all();
  simd::DVec best_v =
      simd::set1(-std::numeric_limits<double>::infinity());
  simd::DVec best_i = simd::zero();

  const std::size_t nfull = size - size % simd::kLanes;
  std::size_t k = 0;
  for (; k < nfull; k += simd::kLanes) {
    const simd::DVec b = simd::load(bids.data() + k);
    ok = simd::mask_and(ok, valid_mask(b));
    const simd::DVec u = utilities4(st, b);
    if (out != nullptr) simd::store(out + k, u);
    if (best != nullptr) {
      const simd::DVec idx =
          simd::add(base_idx, simd::set1(static_cast<double>(k)));
      const simd::DVec m = simd::mask_greater(u, best_v);
      best_v = simd::select(m, u, best_v);
      best_i = simd::select(m, idx, best_i);
    }
  }
  if (k < size) {
    // Padded tail block: duplicate the last candidate into the spare lanes.
    // Padded lanes carry indices >= size, strictly larger than the genuine
    // copy's, so the lowest-index tie-break below can never pick one.
    double padded[simd::kLanes];
    for (std::size_t l = 0; l < simd::kLanes; ++l) {
      padded[l] = k + l < size ? bids[k + l] : bids[size - 1];
    }
    const simd::DVec b = simd::load(padded);
    ok = simd::mask_and(ok, valid_mask(b));
    const simd::DVec u = utilities4(st, b);
    if (out != nullptr) {
      double tmp[simd::kLanes];
      simd::store(tmp, u);
      for (std::size_t l = 0; k + l < size; ++l) out[k + l] = tmp[l];
    }
    if (best != nullptr) {
      const simd::DVec idx =
          simd::add(base_idx, simd::set1(static_cast<double>(k)));
      const simd::DVec m = simd::mask_greater(u, best_v);
      best_v = simd::select(m, u, best_v);
      best_i = simd::select(m, idx, best_i);
    }
  }

  if (!simd::mask_all_true(ok)) {
    // Scalar re-validation so the caller sees the canonical typed error for
    // the first offending candidate, not a lane diagnostic.
    for (std::size_t i = 0; i < size; ++i) {
      const double bid = bids[i];
      LBMV_REQUIRE(bid > 0.0 && std::isfinite(bid),
                   "deviations must have positive finite bid and execution");
    }
  }

  if (best != nullptr) {
    // Horizontal resolution: greatest utility, ties to the smallest index —
    // together with the strictly-greater lane updates this reproduces a
    // scalar first-wins scan in index order.
    double bv = simd::lane(best_v, 0);
    double bi = simd::lane(best_i, 0);
    for (std::size_t l = 1; l < simd::kLanes; ++l) {
      const double v = simd::lane(best_v, l);
      const double i = simd::lane(best_i, l);
      if (v > bv || (v == bv && i < bi)) {
        bv = v;
        bi = i;
      }
    }
    best->index = static_cast<std::size_t>(bi);
    best->utility = bv;
  }
}

// ---------------------------------------------------------------------------
// M/M/1 sweep (DESIGN.md §14)

/// Lane-constant state for one (agent, execution) M/M/1 sweep, read off the
/// context through the same sweep_state() accessor utility() itself calls,
/// so every splatted scalar is bit-identical to the oracle's.
struct Mm1Sweep {
  PaymentRule rule;
  double r;
  double rest_mu;
  double rest_a;
  double rest_min_a;
  double loo;
  double mu_e;  ///< 1.0 / execution, the oracle's exact expression
  double nm1;   ///< static_cast<double>(n - 1)
  double nn;    ///< static_cast<double>(n)
  bool rest_consistent;
};

Mm1Sweep make_mm1_state(const Mm1PrProfileContext& ctx, std::size_t agent,
                        double execution) {
  const Mm1PrProfileContext::SweepState st = ctx.sweep_state(agent);
  Mm1Sweep sw;
  sw.rule = ctx.rule();
  sw.r = ctx.arrival_rate();
  sw.rest_mu = st.rest_mu;
  sw.rest_a = st.rest_a;
  sw.rest_min_a = st.rest_min_a;
  sw.loo = st.loo;
  sw.mu_e = 1.0 / execution;
  sw.nm1 = static_cast<double>(ctx.size() - 1);
  sw.nn = static_cast<double>(ctx.size());
  sw.rest_consistent = st.rest_consistent;
  return sw;
}

/// Four candidate utilities on the all-active consistent fast path, plus an
/// AND-accumulated mask of the lanes the fast path actually covers.  The
/// association of every expression matches Mm1PrProfileContext::utility's
/// fast branch line for line (no FMA, fixed operand order).
simd::DVec mm1_utilities4(const Mm1Sweep& sw, simd::DVec b,
                          simd::DVec* fast_ok) {
  const simd::DVec one = simd::set1(1.0);
  const simd::DVec inf = simd::set1(std::numeric_limits<double>::infinity());
  const simd::DVec mu = simd::div(one, b);                       // 1/b
  const simd::DVec a = simd::sqrt(mu);                           // sqrt(mu)
  const simd::DVec sum_mu = simd::add(simd::set1(sw.rest_mu), mu);
  const simd::DVec sum_a = simd::add(simd::set1(sw.rest_a), a);
  const simd::DVec slack = simd::sub(sum_mu, simd::set1(sw.r));
  // isfinite(sum_mu) && slack > kMm1MinRelativeSlack * sum_mu
  simd::DVec ok = simd::mask_and(
      simd::mask_greater(inf, sum_mu),
      simd::mask_greater(slack, simd::mul(simd::set1(alloc::kMm1MinRelativeSlack),
                                          sum_mu)));
  const simd::DVec c = simd::div(slack, sum_a);
  ok = simd::mask_and(ok, simd::mask_greater(a, c));
  ok = simd::mask_and(ok, simd::mask_greater(simd::set1(sw.rest_min_a), c));
  const simd::DVec x = simd::sub(mu, simd::mul(c, a));
  ok = simd::mask_and(ok, simd::mask_greater(x, simd::zero()));
  const simd::DVec de = simd::sub(simd::set1(sw.mu_e), x);
  ok = simd::mask_and(ok, simd::mask_greater(de, simd::zero()));
  *fast_ok = ok;
  const simd::DVec cost_e = simd::div(x, de);
  // actual = (rest_a / c - nm1) + cost_e
  const simd::DVec actual =
      simd::add(simd::sub(simd::div(simd::set1(sw.rest_a), c),
                          simd::set1(sw.nm1)),
                cost_e);
  switch (sw.rule) {
    case PaymentRule::kCompBonusExecution:
      return simd::sub(simd::set1(sw.loo), actual);
    case PaymentRule::kCompBonusBid: {
      const simd::DVec comp = simd::sub(simd::div(a, c), one);
      return simd::sub(
          simd::add(comp, simd::sub(simd::set1(sw.loo), actual)), cost_e);
    }
    case PaymentRule::kVcg: {
      const simd::DVec comp = simd::sub(simd::div(a, c), one);
      const simd::DVec reported =
          simd::sub(simd::div(sum_a, c), simd::set1(sw.nn));
      return simd::sub(
          simd::sub(simd::set1(sw.loo), simd::sub(reported, comp)), cost_e);
    }
    case PaymentRule::kNoPayment:
      return simd::sub(simd::zero(), cost_e);
    case PaymentRule::kArcherTardos:
      break;  // the context rejects the rule at construction
  }
  LBMV_ASSERT(false, "unreachable payment rule");
  return simd::zero();
}

/// Fused M/M/1 sweep driver.  Blocks fully on the fast path use the lane
/// kernel; a block with any off-path lane is re-evaluated through the
/// scalar oracle (all four lanes, so the downstream max/argmax arithmetic
/// is identical either way).
void mm1_sweep(const Mm1PrProfileContext& ctx, std::size_t agent,
               std::span<const double> bids, double execution, double* out,
               GridBest* best) {
  LBMV_REQUIRE(agent < ctx.profile().size(), "agent index out of range");
  LBMV_REQUIRE(execution > 0.0, "execution values must be positive");
  const std::size_t size = bids.size();
  if (size == 0) return;

  const Mm1Sweep sw = make_mm1_state(ctx, agent, execution);
  const double lane_offsets[simd::kLanes] = {0.0, 1.0, 2.0, 3.0};
  const simd::DVec base_idx = simd::load(lane_offsets);
  simd::DVec best_v = simd::set1(-std::numeric_limits<double>::infinity());
  simd::DVec best_i = simd::zero();

  double padded[simd::kLanes];
  double tmp[simd::kLanes];
  for (std::size_t k = 0; k < size; k += simd::kLanes) {
    const bool partial = k + simd::kLanes > size;
    const double* block = bids.data() + k;
    if (partial) {
      // Padded tail: spare lanes duplicate the last candidate; their indices
      // exceed the genuine copy's, so the tie-break can never pick one.
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        padded[l] = k + l < size ? bids[k + l] : bids[size - 1];
      }
      block = padded;
    }
    const simd::DVec b = simd::load(block);
    simd::DVec fast_ok = simd::zero();
    simd::DVec u = sw.rest_consistent ? mm1_utilities4(sw, b, &fast_ok)
                                      : simd::zero();
    if (!sw.rest_consistent || !simd::mask_all_true(fast_ok)) {
      // Off the fast path somewhere in this block: the scalar oracle owns
      // every lane (slow re-solves and the canonical typed errors alike).
      for (std::size_t l = 0; l < simd::kLanes; ++l) {
        tmp[l] = ctx.utility(agent, block[l], execution);
      }
      u = simd::load(tmp);
    }
    if (out != nullptr) {
      simd::store(tmp, u);
      for (std::size_t l = 0; l < simd::kLanes && k + l < size; ++l) {
        out[k + l] = tmp[l];
      }
    }
    if (best != nullptr) {
      const simd::DVec idx =
          simd::add(base_idx, simd::set1(static_cast<double>(k)));
      const simd::DVec m = simd::mask_greater(u, best_v);
      best_v = simd::select(m, u, best_v);
      best_i = simd::select(m, idx, best_i);
    }
  }

  if (best != nullptr) {
    double bv = simd::lane(best_v, 0);
    double bi = simd::lane(best_i, 0);
    for (std::size_t l = 1; l < simd::kLanes; ++l) {
      const double v = simd::lane(best_v, l);
      const double i = simd::lane(best_i, l);
      if (v > bv || (v == bv && i < bi)) {
        bv = v;
        bi = i;
      }
    }
    best->index = static_cast<std::size_t>(bi);
    best->utility = bv;
  }
}

}  // namespace

std::size_t grid_lanes_padded(std::size_t grid_size) {
  return (simd::kLanes - grid_size % simd::kLanes) % simd::kLanes;
}

void linear_pr_grid_utilities(const LinearPrProfileContext& ctx,
                              std::size_t agent, std::span<const double> bids,
                              double execution, std::span<double> out) {
  LBMV_REQUIRE(out.size() >= bids.size(),
               "output span must cover the candidate grid");
  sweep(ctx, agent, bids, execution, out.data(), nullptr);
}

GridBest linear_pr_grid_best(const LinearPrProfileContext& ctx,
                             std::size_t agent, std::span<const double> bids,
                             double execution) {
  LBMV_REQUIRE(!bids.empty(), "deviation grid must be non-empty");
  GridBest best;
  sweep(ctx, agent, bids, execution, nullptr, &best);
  return best;
}

void mm1_grid_utilities(const Mm1PrProfileContext& ctx, std::size_t agent,
                        std::span<const double> bids, double execution,
                        std::span<double> out) {
  LBMV_REQUIRE(out.size() >= bids.size(),
               "output span must cover the candidate grid");
  mm1_sweep(ctx, agent, bids, execution, out.data(), nullptr);
}

GridBest mm1_grid_best(const Mm1PrProfileContext& ctx, std::size_t agent,
                       std::span<const double> bids, double execution) {
  LBMV_REQUIRE(!bids.empty(), "deviation grid must be non-empty");
  GridBest best;
  mm1_sweep(ctx, agent, bids, execution, nullptr, &best);
  return best;
}

}  // namespace lbmv::core
