#include "lbmv/core/family_context.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/grid_kernels.h"
#include "lbmv/core/rule_terms.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"

namespace lbmv::core {
namespace {

/// A re-solved deviated round's terms (rule_terms.h): the workload context
/// and the M/M/1 re-solve have them all at hand.
struct SolvedTerms {
  double l_rest, actual_total, reported_total, comp, cost;

  double loo() const { return l_rest; }
  double actual() const { return actual_total; }
  double reported() const { return reported_total; }
  double bid_cost() const { return comp; }
  double exec_cost() const { return cost; }
};

/// A deviated M/M/1 round's terms (rule_terms.h) when every active
/// opponent executes as bid, so its queue length is a_j/c - 1: the water
/// level c of the deviated active set, the opponents' active sqrt-rate sum
/// and count, the whole set's, and the deviator's compensation a/c - 1 and
/// verified cost (both 0 when it is idle).  T is double or
/// util::simd::DVec (the sweep).
template <class T>
struct Mm1Terms {
  double l_rest;
  T c;
  double rest_a, rest_active;
  T sum_a;
  double active;
  T comp, cost;

  double loo() const { return l_rest; }
  T actual() const { return (rest_a / c - rest_active) + cost; }
  T reported() const { return sum_a / c - active; }
  T bid_cost() const { return comp; }
  T exec_cost() const { return cost; }
};

/// The verified cost x / (1/e - x) of a load x > 0, raising the domain
/// error when x overloads the execution rate 1/e.
double mm1_verified_cost(std::size_t agent, double x, double execution) {
  const double mu_e = 1.0 / execution;
  const double de = mu_e - x;
  if (!(de > 0.0)) alloc::throw_mm1_domain_error(agent, x, mu_e);
  return x / de;
}

}  // namespace

// ---------------------------------------------------------------------------
// M/M/1

Mm1PrProfileContext::Mm1PrProfileContext(PaymentRule rule, double arrival_rate,
                                         model::BidProfile base)
    : ProfileUtilityContext(rule, arrival_rate, std::move(base)) {
  LBMV_REQUIRE(rule != PaymentRule::kArcherTardos,
               "the Archer-Tardos payment tail is linear-only");
  rebuild();
}

void Mm1PrProfileContext::rebuild() {
  const model::BidProfile& p = profile();
  const std::size_t n = p.size();
  mus_.resize(n);
  a_.resize(n);
  mue_.resize(n);
  inconsistent_.resize(n);
  sum_mu_ = 0.0;
  sum_a_ = 0.0;
  inconsistent_count_ = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double mu = 1.0 / p.bids[j];
    const double aj = std::sqrt(mu);
    mus_[j] = mu;
    a_[j] = aj;
    mue_[j] = 1.0 / p.executions[j];
    sum_mu_ += mu;
    sum_a_ += aj;
    const bool mismatch = p.executions[j] != p.bids[j];
    inconsistent_[j] = mismatch ? 1 : 0;
    if (mismatch) ++inconsistent_count_;
  }
  min_a_ = std::numeric_limits<double>::infinity();
  second_a_ = std::numeric_limits<double>::infinity();
  argmin_a_ = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double aj = a_[j];
    if (aj < min_a_) {
      second_a_ = min_a_;
      min_a_ = aj;
      argmin_a_ = j;
    } else if (aj < second_a_) {
      second_a_ = aj;
    }
  }

  // Committed solve — raises the allocator's typed PreconditionErrors on
  // infeasible / near-saturated profiles and the domain error on execution
  // overloads, exactly when Mechanism::run would.
  rates_.resize(n);
  const alloc::Mm1Solve solve =
      alloc::mm1_solve_into(mus_, arrival_rate(), rates_, planes_);
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = rates_[j];
    if (xj != 0.0 && !(mue_[j] - xj > 0.0)) {
      alloc::throw_mm1_domain_error(j, xj, mue_[j]);
    }
  }

  // Leave-one-out plane: deviation-independent, so precomputed eagerly —
  // utility() stays mutation-free and safe to call concurrently.
  if (reads_leave_one_out(rule())) {
    loo_.resize(n);
    alloc::mm1_leave_one_out_into(mus_, arrival_rate(), solve, planes_, loo_);
  }

  // Deviation queries that idle a computer edit the sorted prefix, which
  // the all-active solve skipped.
  if (planes_.order.empty()) alloc::mm1_sort_into(mus_, planes_);
  slot_.resize(n);
  for (std::size_t k = 0; k < n; ++k) slot_[planes_.order[k]] = k;
}

namespace {

/// The sums a candidate bid moves when every computer stays active: mu and
/// a = sqrt(mu) of the deviator, the deviated totals, the water level c and
/// the deviator's load x = mu - c a.  T is double (the scalar query) or
/// util::simd::DVec (the sweep): one expression text, the same IEEE
/// operation per lane.
template <class T>
struct Mm1Candidate {
  T mu, a, sum_mu, sum_a, slack, c, x;

  Mm1Candidate(const Mm1PrProfileContext::Rest& rest, double rate, T bid) {
    using std::sqrt;
    mu = 1.0 / bid;
    a = sqrt(mu);
    sum_mu = rest.mu + mu;
    sum_a = rest.a + a;
    slack = sum_mu - rate;
    c = slack / sum_a;
    x = mu - c * a;
  }

  /// The terms when all n computers stay active, at the verified cost.
  Mm1Terms<T> all_active(const Mm1PrProfileContext::Rest& rest, double n,
                         T cost) const {
    return {rest.loo, c, rest.a, n - 1.0, sum_a, n, a / c - 1.0, cost};
  }
};

}  // namespace

Mm1PrProfileContext::Rest Mm1PrProfileContext::rest_of(
    std::size_t agent) const {
  return Rest{sum_mu_ - mus_[agent], sum_a_ - a_[agent],
              agent == argmin_a_ ? second_a_ : min_a_,
              reads_leave_one_out(rule()) ? loo_[agent] : 0.0,
              inconsistent_count_ == 0 ||
                  (inconsistent_count_ == 1 && inconsistent_[agent] != 0)};
}

double Mm1PrProfileContext::deviation_utility(std::size_t agent, double bid,
                                              double execution) const {
  const Rest rest = rest_of(agent);
  const Mm1Candidate<double> d(rest, arrival_rate(), bid);
  // Both closed-form paths need a consistent rest and a deviated profile
  // away from saturation; anything else re-solves below and raises the
  // canonical diagnostics.
  if (rest.consistent && std::isfinite(d.sum_mu) &&
      d.slack > alloc::kMm1MinRelativeSlack * d.sum_mu) {
    if (d.a > d.c && rest.min_a > d.c) {
      // Every computer active before and after the deviation: O(1).  The
      // sweep evaluates this branch lane-wise; lanes failing its gates
      // defer here.
      if (d.x > 0.0) {
        const double n = static_cast<double>(profile().size());
        const double cost = mm1_verified_cost(agent, d.x, execution);
        return rule_utility(rule(), d.all_active(rest, n, cost));
      }
    } else {
      // Some computer idle after the deviation: the agent leaves its slot
      // of the sorted prefix and re-enters at its new rate's rank, and the
      // active-set search over that edited order is O(log n).
      const alloc::Mm1Deviation deviation = alloc::mm1_deviation_solve(
          planes_, agent, slot_[agent], mus_[agent], d.mu, arrival_rate());
      const alloc::Mm1Solve& dev = deviation.solve;
      const bool active = deviation.deviator_active;
      const double x = active ? d.mu - dev.c * d.a : 0.0;
      if (dev.c > 0.0 && (!active || x > 0.0)) {
        // An idle deviator carries neither cost nor compensation.
        const double nd = static_cast<double>(dev.active);
        const double sum_a = dev.sum_sqrt_active;
        return rule_utility(
            rule(),
            Mm1Terms<double>{
                rest.loo, dev.c, active ? sum_a - d.a : sum_a,
                active ? nd - 1.0 : nd, sum_a, nd,
                active ? d.a / dev.c - 1.0 : 0.0,
                active ? mm1_verified_cost(agent, x, execution) : 0.0});
      }
    }
  }
  return slow_utility(agent, bid, execution);
}

void Mm1PrProfileContext::sweep(std::size_t agent,
                                std::span<const double> bids,
                                double execution, double* out,
                                GridBest* best) const {
  using util::simd::DVec;
  namespace simd = util::simd;
  const Rest rest = rest_of(agent);
  const double mu_e = 1.0 / execution;
  const double n = static_cast<double>(profile().size());
  const DVec inf = simd::set1(std::numeric_limits<double>::infinity());
  with_payment_rule(rule(), [&](auto r) {
    lane_sweep(bids, out, best,
               [&](double b) { return checked_utility(agent, b, execution); },
               [&](DVec b, DVec& ok) {
      // The scalar query's all-active gates, as lane masks; a block with any
      // lane off them (or an inconsistent rest) is served by that query.
      if (!rest.consistent) {
        ok = simd::zero();
        return ok;
      }
      const Mm1Candidate<DVec> d(rest, arrival_rate(), b);
      const DVec de = mu_e - d.x;
      const auto gate = [&](DVec hi, DVec lo) {
        ok = simd::mask_and(ok, simd::mask_greater(hi, lo));
      };
      gate(inf, d.sum_mu);
      gate(d.slack, alloc::kMm1MinRelativeSlack * d.sum_mu);
      gate(d.a, d.c);
      gate(simd::set1(rest.min_a), d.c);
      gate(d.x, simd::zero());
      gate(de, simd::zero());
      return rule_terms(r, d.all_active(rest, n, d.x / de)).utility;
    });
  });
}

double Mm1PrProfileContext::slow_utility(std::size_t agent, double bid,
                                         double execution) const {
  const std::size_t n = profile().size();
  // Local planes: queries must stay safe to issue concurrently, so the
  // off-fast-path re-solve never touches shared scratch.
  std::vector<double> mus(mus_);
  mus[agent] = 1.0 / bid;
  std::vector<double> rates(n);
  const alloc::Mm1Solve solve = alloc::mm1_solve_into(mus, arrival_rate(), rates);
  double actual = 0.0;
  double cost_e = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = rates[j];
    if (xj == 0.0) continue;
    const double mu_e = j == agent ? 1.0 / execution : mue_[j];
    const double de = mu_e - xj;
    if (!(de > 0.0)) alloc::throw_mm1_domain_error(j, xj, mu_e);
    const double cost = xj / de;
    if (j == agent) cost_e = cost;
    actual += cost;
  }
  const double loo = reads_leave_one_out(rule()) ? loo_[agent] : 0.0;
  const double x = rates[agent];
  const double comp = x / (mus[agent] - x);
  return rule_utility(
      rule(), SolvedTerms{loo, actual, solve.optimal_latency, comp, cost_e});
}

// ---------------------------------------------------------------------------
// Workload-dependent rates

WorkloadProfileContext::WorkloadProfileContext(PaymentRule rule, double gamma,
                                               double arrival_rate,
                                               model::BidProfile base)
    : ProfileUtilityContext(rule, arrival_rate, std::move(base)),
      gamma_(gamma) {
  LBMV_REQUIRE(rule != PaymentRule::kArcherTardos,
               "the Archer-Tardos payment tail is linear-only");
  LBMV_REQUIRE(gamma > 0.0,
               "workload family congestion coefficient must be positive");
  rebuild();
}

void WorkloadProfileContext::rebuild() {
  const model::BidProfile& p = profile();
  rates_.resize(p.size());
  const alloc::WorkloadSolve solve =
      alloc::workload_solve_into(p.bids, gamma_, arrival_rate(), rates_);
  if (reads_leave_one_out(rule())) {
    loo_.resize(p.size());
    std::vector<double> scratch;
    alloc::workload_leave_one_out_into(p.bids, gamma_, arrival_rate(), solve,
                                       rates_, loo_, scratch);
  }
}

double WorkloadProfileContext::deviation_utility(std::size_t agent,
                                                 double bid,
                                                 double execution) const {
  const model::BidProfile& p = profile();
  const std::size_t n = p.size();
  // The conservation constraint couples every rate through the multiplier,
  // so a deviation re-runs the Newton solve against local planes (queries
  // may be concurrent).  The cold start is the solver's own 2R/S estimate:
  // a faster deviated bid would invalidate a warm start at the committed
  // multiplier (g(lambda) > 0 breaks the monotone-from-below contract).
  std::vector<double> thetas(p.bids);
  thetas[agent] = bid;
  std::vector<double> x(n);
  const alloc::WorkloadSolve solve =
      alloc::workload_solve_into(thetas, gamma_, arrival_rate(), x);
  double actual = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double e = j == agent ? execution : p.executions[j];
    actual += model::workload_cost(x[j], e, gamma_);
  }
  const double xa = x[agent];
  const double cost_e = model::workload_cost(xa, execution, gamma_);
  const double comp = model::workload_cost(xa, bid, gamma_);
  const double loo = reads_leave_one_out(rule()) ? loo_[agent] : 0.0;
  return rule_utility(
      rule(), SolvedTerms{loo, actual, solve.optimal_latency, comp, cost_e});
}

}  // namespace lbmv::core
