#include "lbmv/core/family_context.h"

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
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
/// verified cost (both 0 when it is idle).
struct Mm1Terms {
  double l_rest, c, rest_a, rest_active, sum_a, active, comp, cost;

  double loo() const { return l_rest; }
  double actual() const { return (rest_a / c - rest_active) + cost; }
  double reported() const { return sum_a / c - active; }
  double bid_cost() const { return comp; }
  double exec_cost() const { return cost; }
};

/// The verified cost of computer \p agent's load x against its execution
/// rate mu_e, after the capacity check.
double mm1_verified_cost(std::size_t agent, double x, double mu_e) {
  alloc::require_mm1_capacity(agent, x, mu_e);
  return model::mm1_cost(x, mu_e);
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
  mue_.resize(n);
  inconsistent_.resize(n);
  sum_mu_ = 0.0;
  inconsistent_count_ = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double mu = 1.0 / p.bids[j];
    mus_[j] = mu;
    mue_[j] = 1.0 / p.executions[j];
    sum_mu_ += mu;
    const bool mismatch = p.executions[j] != p.bids[j];
    inconsistent_[j] = mismatch ? 1 : 0;
    if (mismatch) ++inconsistent_count_;
  }

  // Committed solve — raises the allocator's typed PreconditionErrors on
  // infeasible / near-saturated profiles and the domain error on execution
  // overloads, exactly when Mechanism::run would.
  rates_.resize(n);
  const alloc::Mm1Solve solve =
      alloc::mm1_solve_into(mus_, arrival_rate(), rates_, planes_);
  for (std::size_t j = 0; j < n; ++j) {
    alloc::require_mm1_capacity(j, rates_[j], mue_[j]);
  }

  // Leave-one-out plane: deviation-independent, so precomputed eagerly —
  // utility() stays mutation-free and safe to call concurrently.
  if (reads_leave_one_out(rule())) {
    loo_.resize(n);
    alloc::mm1_leave_one_out_into(mus_, arrival_rate(), solve, planes_, loo_);
  }

  // Deviation queries edit the sorted prefix, which the all-active solve
  // skipped.
  if (planes_.order.empty()) alloc::mm1_sort_into(mus_, planes_);
  slot_.resize(n);
  for (std::size_t k = 0; k < n; ++k) slot_[planes_.order[k]] = k;
}

double Mm1PrProfileContext::deviation_utility(std::size_t agent, double bid,
                                              double execution) const {
  const double mu = 1.0 / bid;
  const double sum_mu = (sum_mu_ - mus_[agent]) + mu;
  // The edited-order solve needs every opponent to execute as bid (the
  // actual-latency form sum_{j != i} (a_j/c - 1)) and a deviated profile
  // away from saturation; anything else re-solves below and raises the
  // canonical diagnostics.
  const bool consistent =
      inconsistent_count_ == 0 ||
      (inconsistent_count_ == 1 && inconsistent_[agent] != 0);
  if (consistent && std::isfinite(sum_mu) &&
      sum_mu - arrival_rate() > alloc::kMm1MinRelativeSlack * sum_mu) {
    // The agent leaves its slot of the sorted prefix and re-enters at its
    // new rate's rank; the active-set search over that edited order is
    // O(log n).
    const alloc::Mm1Deviation deviation = alloc::mm1_deviation_solve(
        planes_, agent, slot_[agent], mus_[agent], mu, arrival_rate());
    const alloc::Mm1Solve& dev = deviation.solve;
    const bool active = deviation.deviator_active;
    const double a = std::sqrt(mu);
    const double x = active ? mu - dev.c * a : 0.0;
    if (dev.c > 0.0 && (!active || x > 0.0)) {
      // An idle deviator carries neither cost nor compensation.
      const double nd = static_cast<double>(dev.active);
      const double sum_a = dev.sum_sqrt_active;
      return rule_utility(
          rule(),
          Mm1Terms{loo_at(agent), dev.c, active ? sum_a - a : sum_a,
                   active ? nd - 1.0 : nd, sum_a, nd,
                   active ? a / dev.c - 1.0 : 0.0,
                   active ? mm1_verified_cost(agent, x, 1.0 / execution)
                          : 0.0});
    }
  }
  return slow_utility(agent, bid, execution);
}

double Mm1PrProfileContext::slow_utility(std::size_t agent, double bid,
                                         double execution) const {
  const std::size_t n = profile().size();
  // Local planes: queries must stay safe to issue concurrently, so the
  // re-solve never touches shared scratch.
  std::vector<double> mus(mus_);
  mus[agent] = 1.0 / bid;
  std::vector<double> rates(n);
  const alloc::Mm1Solve solve =
      alloc::mm1_solve_into(mus, arrival_rate(), rates);
  double actual = 0.0;
  double cost_e = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = rates[j];
    if (xj == 0.0) continue;
    const double cost =
        mm1_verified_cost(j, xj, j == agent ? 1.0 / execution : mue_[j]);
    if (j == agent) cost_e = cost;
    actual += cost;
  }
  const double comp = model::mm1_cost(rates[agent], mus[agent]);
  return rule_utility(rule(), SolvedTerms{loo_at(agent), actual,
                                          solve.optimal_latency, comp, cost_e});
}

double Mm1PrProfileContext::loo_at(std::size_t agent) const {
  return reads_leave_one_out(rule()) ? loo_[agent] : 0.0;
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
