#include "lbmv/core/family_context.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/grid_kernels.h"
#include "lbmv/util/error.h"

namespace lbmv::core {
namespace {

/// Write a batch of commits into \p profile, checking every entry before
/// writing any, so a rejected batch leaves the profile untouched.
void write_deltas(std::span<const BidDelta> deltas,
                  model::BidProfile& profile) {
  for (const BidDelta& d : deltas) {
    model::require_valid_deviation(d.agent, profile.size(), d.bid,
                                   d.execution);
  }
  for (const BidDelta& d : deltas) {
    profile.bids[d.agent] = d.bid;
    profile.executions[d.agent] = d.execution;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// M/M/1

Mm1PrProfileContext::Mm1PrProfileContext(PaymentRule rule, double arrival_rate,
                                         model::BidProfile base)
    : rule_(rule), arrival_rate_(arrival_rate), profile_(std::move(base)) {
  LBMV_REQUIRE(rule != PaymentRule::kArcherTardos,
               "the Archer-Tardos payment tail is linear-only");
  const std::size_t n = profile_.size();
  LBMV_REQUIRE(n >= 2, "mechanism rounds need at least two agents");
  profile_.validate(n);
  LBMV_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
               "arrival rate must be positive and finite");
  rebuild();
}

void Mm1PrProfileContext::rebuild() {
  const std::size_t n = profile_.size();
  mus_.resize(n);
  a_.resize(n);
  mue_.resize(n);
  inconsistent_.resize(n);
  sum_mu_ = 0.0;
  sum_a_ = 0.0;
  inconsistent_count_ = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double mu = 1.0 / profile_.bids[j];
    const double aj = std::sqrt(mu);
    mus_[j] = mu;
    a_[j] = aj;
    mue_[j] = 1.0 / profile_.executions[j];
    sum_mu_ += mu;
    sum_a_ += aj;
    const bool mismatch = profile_.executions[j] != profile_.bids[j];
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
  // infeasible / near-saturated profiles, exactly when Mechanism::run would.
  rates_.resize(n);
  const alloc::Mm1Solve solve =
      alloc::mm1_solve_into(mus_, arrival_rate_, rates_, planes_);
  reported_ = solve.optimal_latency;
  actual_ = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = rates_[j];
    if (xj == 0.0) continue;
    const double de = mue_[j] - xj;
    if (!(de > 0.0)) alloc::throw_mm1_domain_error(j, xj, mue_[j]);
    actual_ += xj / de;
  }

  // Leave-one-out plane: deviation-independent, so precomputed eagerly —
  // utility() stays mutation-free and safe to call concurrently.
  if (rule_ != PaymentRule::kNoPayment) {
    loo_.resize(n);
    alloc::mm1_leave_one_out_into(mus_, arrival_rate_, solve, planes_, loo_);
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
/// the deviator's load x = mu - c a.  T is double (utility()) or
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
};

/// The deviator's utility under rule R.  Every active opponent executes as
/// bid, so its queue length is a_j/c - 1 and the verified latency is
/// (rest_a/c - rest_active) plus the deviator's own cost; comp is the
/// deviator's cost at its bid.  kArcherTardos never gets here (the context
/// rejects it at construction).
template <PaymentRule R, class T>
T mm1_payoff(std::integral_constant<PaymentRule, R>, double loo, T c,
             double rest_a, double rest_active, T sum_a, double active,
             T comp, T cost_e) {
  const T actual = (rest_a / c - rest_active) + cost_e;
  if constexpr (R == PaymentRule::kCompBonusExecution) {
    // C = cost at execution basis cancels the valuation.
    return loo - actual;
  } else if constexpr (R == PaymentRule::kCompBonusBid) {
    return comp + (loo - actual) - cost_e;
  } else if constexpr (R == PaymentRule::kVcg) {
    const T reported = sum_a / c - active;
    return (loo - (reported - comp)) - cost_e;
  } else {
    return -cost_e;
  }
}

}  // namespace

Mm1PrProfileContext::Rest Mm1PrProfileContext::rest_of(
    std::size_t agent) const {
  return Rest{sum_mu_ - mus_[agent], sum_a_ - a_[agent],
              agent == argmin_a_ ? second_a_ : min_a_,
              rule_ == PaymentRule::kNoPayment ? 0.0 : loo_[agent],
              inconsistent_count_ == 0 ||
                  (inconsistent_count_ == 1 && inconsistent_[agent] != 0)};
}

double Mm1PrProfileContext::utility(std::size_t agent, double bid,
                                    double execution) const {
  model::require_valid_deviation(agent, profile_.size(), bid, execution);
  const Rest rest = rest_of(agent);
  const Mm1Candidate<double> d(rest, arrival_rate_, bid);
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
        const double n = static_cast<double>(profile_.size());
        return payoff(agent, rest.loo, d.c, rest.a, n - 1.0, d.sum_a, n, d.a,
                      d.x, execution);
      }
    } else {
      // Some computer idle after the deviation: the agent leaves its slot
      // of the sorted prefix and re-enters at its new rate's rank, and the
      // active-set search over that edited order is O(log n).
      const alloc::Mm1Deviation deviation = alloc::mm1_deviation_solve(
          planes_, agent, slot_[agent], mus_[agent], d.mu, arrival_rate_);
      const alloc::Mm1Solve& dev = deviation.solve;
      const bool active = deviation.deviator_active;
      const double x = active ? d.mu - dev.c * d.a : 0.0;
      if (dev.c > 0.0 && (!active || x > 0.0)) {
        const double rest_a =
            active ? dev.sum_sqrt_active - d.a : dev.sum_sqrt_active;
        const double nd = static_cast<double>(dev.active);
        return payoff(agent, rest.loo, dev.c, rest_a, active ? nd - 1.0 : nd,
                      dev.sum_sqrt_active, nd, d.a, x, execution);
      }
    }
  }
  return slow_utility(agent, bid, execution);
}

double Mm1PrProfileContext::payoff(std::size_t agent, double loo, double c,
                                   double rest_a, double rest_active,
                                   double sum_a, double active, double a_dev,
                                   double x, double execution) const {
  // An idle deviator carries neither cost nor compensation.
  double cost_e = 0.0;
  double comp = 0.0;
  if (x > 0.0) {
    const double mu_e = 1.0 / execution;
    const double de = mu_e - x;
    if (!(de > 0.0)) alloc::throw_mm1_domain_error(agent, x, mu_e);
    cost_e = x / de;
    comp = a_dev / c - 1.0;
  }
  return with_payment_rule(rule_, [&](auto rule) {
    return mm1_payoff(rule, loo, c, rest_a, rest_active, sum_a, active, comp,
                      cost_e);
  });
}

void Mm1PrProfileContext::sweep(std::size_t agent,
                                std::span<const double> bids,
                                double execution, double* out,
                                GridBest* best) const {
  using util::simd::DVec;
  namespace simd = util::simd;
  const Rest rest = rest_of(agent);
  const double mu_e = 1.0 / execution;
  const double n = static_cast<double>(profile_.size());
  const DVec inf = simd::set1(std::numeric_limits<double>::infinity());
  with_payment_rule(rule_, [&](auto rule) {
    lane_sweep(*this, agent, bids, execution, out, best,
               [&](DVec b, DVec& ok) {
      // utility()'s all-active gates, as lane masks; a block with any lane
      // off them (or an inconsistent rest) is served by utility() itself.
      if (!rest.consistent) {
        ok = simd::zero();
        return ok;
      }
      const Mm1Candidate<DVec> d(rest, arrival_rate_, b);
      const DVec de = mu_e - d.x;
      ok = simd::mask_and(ok, simd::mask_greater(inf, d.sum_mu));
      ok = simd::mask_and(
          ok, simd::mask_greater(d.slack,
                                 alloc::kMm1MinRelativeSlack * d.sum_mu));
      ok = simd::mask_and(ok, simd::mask_greater(d.a, d.c));
      ok = simd::mask_and(ok, simd::mask_greater(simd::set1(rest.min_a), d.c));
      ok = simd::mask_and(ok, simd::mask_greater(d.x, simd::zero()));
      ok = simd::mask_and(ok, simd::mask_greater(de, simd::zero()));
      return mm1_payoff(rule, rest.loo, d.c, rest.a, n - 1.0, d.sum_a, n,
                        d.a / d.c - 1.0, d.x / de);
    });
  });
}

double Mm1PrProfileContext::slow_utility(std::size_t agent, double bid,
                                         double execution) const {
  const std::size_t n = profile_.size();
  // Local planes: utility() must stay safe under concurrent queries, so the
  // off-fast-path re-solve never touches shared scratch.
  std::vector<double> mus(mus_);
  mus[agent] = 1.0 / bid;
  std::vector<double> rates(n);
  const alloc::Mm1Solve solve = alloc::mm1_solve_into(mus, arrival_rate_, rates);
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
  const double loo = rule_ == PaymentRule::kNoPayment ? 0.0 : loo_[agent];
  const double x = rates[agent];
  switch (rule_) {
    case PaymentRule::kCompBonusExecution:
      return loo - actual;
    case PaymentRule::kCompBonusBid: {
      const double comp = x / (mus[agent] - x);
      return comp + (loo - actual) - cost_e;
    }
    case PaymentRule::kVcg: {
      const double comp = x / (mus[agent] - x);
      return (loo - (solve.optimal_latency - comp)) - cost_e;
    }
    case PaymentRule::kNoPayment:
      return -cost_e;
    case PaymentRule::kArcherTardos:
      break;
  }
  LBMV_ASSERT(false, "unreachable payment rule");
  return 0.0;
}

void Mm1PrProfileContext::commit(std::size_t agent, double bid,
                                 double execution) {
  model::require_valid_deviation(agent, profile_.size(), bid, execution);
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  // O(n) rebuild: the min/arg-min pair and the leave-one-out plane cannot
  // be delta-updated without a re-scan anyway, and commits are rare next
  // to queries in every strategy loop.
  rebuild();
}

void Mm1PrProfileContext::commit_batch(std::span<const BidDelta> deltas) {
  if (deltas.empty()) return;
  write_deltas(deltas, profile_);
  rebuild();
}

void Mm1PrProfileContext::outcome_into(MechanismOutcome& out) const {
  const std::size_t n = profile_.size();
  std::vector<double> rates = std::move(out.allocation).release();
  rates.assign(rates_.begin(), rates_.end());
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.agents.resize(n);
  out.actual_latency = actual_;
  out.reported_latency = reported_;
  for (std::size_t j = 0; j < n; ++j) {
    AgentOutcome& ag = out.agents[j];
    const double x = rates_[j];
    ag.allocation = x;
    const double cost_e = x / (mue_[j] - x);  // 0 for idle computers
    ag.valuation = -cost_e;
    switch (rule_) {
      case PaymentRule::kCompBonusExecution:
        ag.compensation = cost_e;
        ag.bonus = loo_[j] - actual_;
        ag.payment = ag.compensation + ag.bonus;
        break;
      case PaymentRule::kCompBonusBid:
        ag.compensation = x / (mus_[j] - x);
        ag.bonus = loo_[j] - actual_;
        ag.payment = ag.compensation + ag.bonus;
        break;
      case PaymentRule::kVcg:
        ag.compensation = x / (mus_[j] - x);
        ag.bonus = loo_[j] - reported_;
        ag.payment = loo_[j] - (reported_ - ag.compensation);
        break;
      case PaymentRule::kNoPayment:
      case PaymentRule::kArcherTardos:
        ag.compensation = 0.0;
        ag.bonus = 0.0;
        ag.payment = 0.0;
        break;
    }
    ag.utility = ag.payment + ag.valuation;
  }
}

// ---------------------------------------------------------------------------
// Workload-dependent rates

WorkloadProfileContext::WorkloadProfileContext(PaymentRule rule, double gamma,
                                               double arrival_rate,
                                               model::BidProfile base)
    : rule_(rule),
      gamma_(gamma),
      arrival_rate_(arrival_rate),
      profile_(std::move(base)) {
  LBMV_REQUIRE(rule != PaymentRule::kArcherTardos,
               "the Archer-Tardos payment tail is linear-only");
  const std::size_t n = profile_.size();
  LBMV_REQUIRE(n >= 2, "mechanism rounds need at least two agents");
  profile_.validate(n);
  LBMV_REQUIRE(std::isfinite(arrival_rate) && arrival_rate > 0.0,
               "arrival rate must be positive and finite");
  LBMV_REQUIRE(gamma > 0.0,
               "workload family congestion coefficient must be positive");
  rebuild();
}

void WorkloadProfileContext::rebuild() {
  const std::size_t n = profile_.size();
  rates_.resize(n);
  const alloc::WorkloadSolve solve =
      alloc::workload_solve_into(profile_.bids, gamma_, arrival_rate_, rates_);
  lambda_ = solve.lambda;
  reported_ = solve.optimal_latency;
  actual_ = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double x = rates_[j];
    actual_ += x * ((profile_.executions[j] * x) * (1.0 + gamma_ * x));
  }
  if (rule_ != PaymentRule::kNoPayment) {
    loo_.resize(n);
    std::vector<double> scratch;
    alloc::workload_leave_one_out_into(profile_.bids, gamma_, arrival_rate_,
                                       solve, rates_, loo_, scratch);
  }
}

double WorkloadProfileContext::utility(std::size_t agent, double bid,
                                       double execution) const {
  model::require_valid_deviation(agent, profile_.size(), bid, execution);
  const std::size_t n = profile_.size();
  // The conservation constraint couples every rate through the multiplier,
  // so a deviation re-runs the Newton solve against local planes (queries
  // may be concurrent).  The cold start is the solver's own 2R/S estimate:
  // a faster deviated bid would invalidate a warm start at the committed
  // multiplier (g(lambda_) > 0 breaks the monotone-from-below contract).
  std::vector<double> thetas(profile_.bids);
  thetas[agent] = bid;
  std::vector<double> x(n);
  const alloc::WorkloadSolve solve =
      alloc::workload_solve_into(thetas, gamma_, arrival_rate_, x);
  double actual = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double e = j == agent ? execution : profile_.executions[j];
    actual += x[j] * ((e * x[j]) * (1.0 + gamma_ * x[j]));
  }
  const double xa = x[agent];
  const double cost_e = xa * ((execution * xa) * (1.0 + gamma_ * xa));
  const double loo = rule_ == PaymentRule::kNoPayment ? 0.0 : loo_[agent];
  switch (rule_) {
    case PaymentRule::kCompBonusExecution:
      return loo - actual;
    case PaymentRule::kCompBonusBid: {
      const double comp = xa * ((bid * xa) * (1.0 + gamma_ * xa));
      return comp + (loo - actual) - cost_e;
    }
    case PaymentRule::kVcg: {
      const double comp = xa * ((bid * xa) * (1.0 + gamma_ * xa));
      return (loo - (solve.optimal_latency - comp)) - cost_e;
    }
    case PaymentRule::kNoPayment:
      return -cost_e;
    case PaymentRule::kArcherTardos:
      break;
  }
  LBMV_ASSERT(false, "unreachable payment rule");
  return 0.0;
}

void WorkloadProfileContext::commit(std::size_t agent, double bid,
                                    double execution) {
  model::require_valid_deviation(agent, profile_.size(), bid, execution);
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  rebuild();
}

void WorkloadProfileContext::commit_batch(std::span<const BidDelta> deltas) {
  if (deltas.empty()) return;
  write_deltas(deltas, profile_);
  rebuild();
}

void WorkloadProfileContext::outcome_into(MechanismOutcome& out) const {
  const std::size_t n = profile_.size();
  std::vector<double> rates = std::move(out.allocation).release();
  rates.assign(rates_.begin(), rates_.end());
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.agents.resize(n);
  out.actual_latency = actual_;
  out.reported_latency = reported_;
  for (std::size_t j = 0; j < n; ++j) {
    AgentOutcome& ag = out.agents[j];
    const double x = rates_[j];
    ag.allocation = x;
    const double cost_e =
        x * ((profile_.executions[j] * x) * (1.0 + gamma_ * x));
    ag.valuation = -cost_e;
    switch (rule_) {
      case PaymentRule::kCompBonusExecution:
        ag.compensation = cost_e;
        ag.bonus = loo_[j] - actual_;
        ag.payment = ag.compensation + ag.bonus;
        break;
      case PaymentRule::kCompBonusBid:
        ag.compensation = x * ((profile_.bids[j] * x) * (1.0 + gamma_ * x));
        ag.bonus = loo_[j] - actual_;
        ag.payment = ag.compensation + ag.bonus;
        break;
      case PaymentRule::kVcg:
        ag.compensation = x * ((profile_.bids[j] * x) * (1.0 + gamma_ * x));
        ag.bonus = loo_[j] - reported_;
        ag.payment = loo_[j] - (reported_ - ag.compensation);
        break;
      case PaymentRule::kNoPayment:
      case PaymentRule::kArcherTardos:
        ag.compensation = 0.0;
        ag.bonus = 0.0;
        ag.payment = 0.0;
        break;
    }
    ag.utility = ag.payment + ag.valuation;
  }
}

// ---------------------------------------------------------------------------

std::unique_ptr<ProfileUtilityContext> make_family_profile_context(
    PaymentRule rule, const model::LatencyFamily& family,
    const alloc::Allocator& allocator, double arrival_rate,
    const model::BidProfile& base) {
  if (rule == PaymentRule::kArcherTardos) return nullptr;
  if (dynamic_cast<const model::MM1Family*>(&family) != nullptr &&
      dynamic_cast<const alloc::MM1Allocator*>(&allocator) != nullptr) {
    return std::make_unique<Mm1PrProfileContext>(rule, arrival_rate, base);
  }
  if (const auto* workload = dynamic_cast<const model::WorkloadFamily*>(&family);
      workload != nullptr &&
      dynamic_cast<const alloc::WorkloadAllocator*>(&allocator) != nullptr) {
    return std::make_unique<WorkloadProfileContext>(rule, workload->gamma(),
                                                    arrival_rate, base);
  }
  return nullptr;
}

}  // namespace lbmv::core
