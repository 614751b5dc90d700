#include "lbmv/core/family_context.h"

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

// ---------------------------------------------------------------------------
// M/M/1

Mm1PrProfileContext::Mm1PrProfileContext(LinearPrRule rule, double arrival_rate,
                                         model::BidProfile base)
    : rule_(rule), arrival_rate_(arrival_rate), profile_(std::move(base)) {
  LBMV_REQUIRE(rule != LinearPrRule::kArcherTardos,
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
  alloc::Mm1Planes planes;
  const alloc::Mm1Solve solve =
      alloc::mm1_solve_into(mus_, arrival_rate_, rates_, planes);
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
  if (rule_ != LinearPrRule::kNoPayment) {
    loo_.resize(n);
    alloc::mm1_leave_one_out_into(mus_, arrival_rate_, solve, planes, loo_);
  }
}

Mm1PrProfileContext::SweepState Mm1PrProfileContext::sweep_state(
    std::size_t agent) const {
  LBMV_ASSERT(agent < profile_.size(), "agent index out of range");
  SweepState st;
  st.rest_mu = sum_mu_ - mus_[agent];
  st.rest_a = sum_a_ - a_[agent];
  st.rest_min_a = agent == argmin_a_ ? second_a_ : min_a_;
  st.loo = rule_ == LinearPrRule::kNoPayment ? 0.0 : loo_[agent];
  st.rest_consistent =
      inconsistent_count_ == 0 ||
      (inconsistent_count_ == 1 && inconsistent_[agent] != 0);
  return st;
}

double Mm1PrProfileContext::utility(std::size_t agent, double bid,
                                    double execution) const {
  LBMV_REQUIRE(bid > 0.0, "bids must be positive");
  LBMV_REQUIRE(execution > 0.0, "execution values must be positive");
  const SweepState st = sweep_state(agent);
  const double mu_dev = 1.0 / bid;
  const double a_dev = std::sqrt(mu_dev);
  const double sum_mu = st.rest_mu + mu_dev;
  const double sum_a = st.rest_a + a_dev;
  const double slack = sum_mu - arrival_rate_;
  // Fast path: every computer active before and after the deviation, away
  // from saturation, rest profile consistent.  The grid kernels
  // (grid_kernels.h) replicate this branch lane-wise in the same operand
  // order; any lane failing its gates defers to this scalar oracle, which
  // re-solves below and raises the canonical diagnostics.
  if (st.rest_consistent && std::isfinite(sum_mu) &&
      slack > alloc::kMm1MinRelativeSlack * sum_mu) {
    const double c = slack / sum_a;
    if (a_dev > c && st.rest_min_a > c) {
      const double x = mu_dev - c * a_dev;
      if (x > 0.0) {
        const double mu_e = 1.0 / execution;
        const double de = mu_e - x;
        if (!(de > 0.0)) alloc::throw_mm1_domain_error(agent, x, mu_e);
        const double cost_e = x / de;
        const double nm1 = static_cast<double>(profile_.size() - 1);
        const double actual = (st.rest_a / c - nm1) + cost_e;
        switch (rule_) {
          case LinearPrRule::kCompBonusExecution:
            // C = cost at execution basis cancels the valuation.
            return st.loo - actual;
          case LinearPrRule::kCompBonusBid: {
            const double comp = a_dev / c - 1.0;
            return comp + (st.loo - actual) - cost_e;
          }
          case LinearPrRule::kVcg: {
            const double comp = a_dev / c - 1.0;
            const double reported =
                sum_a / c - static_cast<double>(profile_.size());
            return (st.loo - (reported - comp)) - cost_e;
          }
          case LinearPrRule::kNoPayment:
            return -cost_e;
          case LinearPrRule::kArcherTardos:
            break;  // rejected at construction
        }
      }
    }
  }
  return slow_utility(agent, bid, execution);
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
  const double loo = rule_ == LinearPrRule::kNoPayment ? 0.0 : loo_[agent];
  const double x = rates[agent];
  switch (rule_) {
    case LinearPrRule::kCompBonusExecution:
      return loo - actual;
    case LinearPrRule::kCompBonusBid: {
      const double comp = x / (mus[agent] - x);
      return comp + (loo - actual) - cost_e;
    }
    case LinearPrRule::kVcg: {
      const double comp = x / (mus[agent] - x);
      return (loo - (solve.optimal_latency - comp)) - cost_e;
    }
    case LinearPrRule::kNoPayment:
      return -cost_e;
    case LinearPrRule::kArcherTardos:
      break;
  }
  LBMV_ASSERT(false, "unreachable payment rule");
  return 0.0;
}

void Mm1PrProfileContext::commit(std::size_t agent, double bid,
                                 double execution) {
  LBMV_ASSERT(agent < profile_.size(), "agent index out of range");
  LBMV_REQUIRE(bid > 0.0, "bids must be positive");
  LBMV_REQUIRE(execution > 0.0, "execution values must be positive");
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  // O(n) rebuild: the min/arg-min pair and the leave-one-out plane cannot
  // be delta-updated without a re-scan anyway, and commits are rare next
  // to queries in every strategy loop.
  rebuild();
}

void Mm1PrProfileContext::commit_batch(std::span<const BidDelta> deltas) {
  if (deltas.empty()) return;
  for (const BidDelta& d : deltas) {
    LBMV_ASSERT(d.agent < profile_.size(), "agent index out of range");
    LBMV_REQUIRE(d.bid > 0.0, "bids must be positive");
    LBMV_REQUIRE(d.execution > 0.0, "execution values must be positive");
    profile_.bids[d.agent] = d.bid;
    profile_.executions[d.agent] = d.execution;
  }
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
      case LinearPrRule::kCompBonusExecution:
        ag.compensation = cost_e;
        ag.bonus = loo_[j] - actual_;
        ag.payment = ag.compensation + ag.bonus;
        break;
      case LinearPrRule::kCompBonusBid:
        ag.compensation = x / (mus_[j] - x);
        ag.bonus = loo_[j] - actual_;
        ag.payment = ag.compensation + ag.bonus;
        break;
      case LinearPrRule::kVcg:
        ag.compensation = x / (mus_[j] - x);
        ag.bonus = loo_[j] - reported_;
        ag.payment = loo_[j] - (reported_ - ag.compensation);
        break;
      case LinearPrRule::kNoPayment:
      case LinearPrRule::kArcherTardos:
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

WorkloadProfileContext::WorkloadProfileContext(LinearPrRule rule, double gamma,
                                               double arrival_rate,
                                               model::BidProfile base)
    : rule_(rule),
      gamma_(gamma),
      arrival_rate_(arrival_rate),
      profile_(std::move(base)) {
  LBMV_REQUIRE(rule != LinearPrRule::kArcherTardos,
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
  if (rule_ != LinearPrRule::kNoPayment) {
    loo_.resize(n);
    std::vector<double> scratch;
    alloc::workload_leave_one_out_into(profile_.bids, gamma_, arrival_rate_,
                                       solve, rates_, loo_, scratch);
  }
}

double WorkloadProfileContext::utility(std::size_t agent, double bid,
                                       double execution) const {
  LBMV_ASSERT(agent < profile_.size(), "agent index out of range");
  LBMV_REQUIRE(bid > 0.0, "bids must be positive");
  LBMV_REQUIRE(execution > 0.0, "execution values must be positive");
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
  const double loo = rule_ == LinearPrRule::kNoPayment ? 0.0 : loo_[agent];
  switch (rule_) {
    case LinearPrRule::kCompBonusExecution:
      return loo - actual;
    case LinearPrRule::kCompBonusBid: {
      const double comp = xa * ((bid * xa) * (1.0 + gamma_ * xa));
      return comp + (loo - actual) - cost_e;
    }
    case LinearPrRule::kVcg: {
      const double comp = xa * ((bid * xa) * (1.0 + gamma_ * xa));
      return (loo - (solve.optimal_latency - comp)) - cost_e;
    }
    case LinearPrRule::kNoPayment:
      return -cost_e;
    case LinearPrRule::kArcherTardos:
      break;
  }
  LBMV_ASSERT(false, "unreachable payment rule");
  return 0.0;
}

void WorkloadProfileContext::commit(std::size_t agent, double bid,
                                    double execution) {
  LBMV_ASSERT(agent < profile_.size(), "agent index out of range");
  LBMV_REQUIRE(bid > 0.0, "bids must be positive");
  LBMV_REQUIRE(execution > 0.0, "execution values must be positive");
  profile_.bids[agent] = bid;
  profile_.executions[agent] = execution;
  rebuild();
}

void WorkloadProfileContext::commit_batch(std::span<const BidDelta> deltas) {
  if (deltas.empty()) return;
  for (const BidDelta& d : deltas) {
    LBMV_ASSERT(d.agent < profile_.size(), "agent index out of range");
    LBMV_REQUIRE(d.bid > 0.0, "bids must be positive");
    LBMV_REQUIRE(d.execution > 0.0, "execution values must be positive");
    profile_.bids[d.agent] = d.bid;
    profile_.executions[d.agent] = d.execution;
  }
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
      case LinearPrRule::kCompBonusExecution:
        ag.compensation = cost_e;
        ag.bonus = loo_[j] - actual_;
        ag.payment = ag.compensation + ag.bonus;
        break;
      case LinearPrRule::kCompBonusBid:
        ag.compensation = x * ((profile_.bids[j] * x) * (1.0 + gamma_ * x));
        ag.bonus = loo_[j] - actual_;
        ag.payment = ag.compensation + ag.bonus;
        break;
      case LinearPrRule::kVcg:
        ag.compensation = x * ((profile_.bids[j] * x) * (1.0 + gamma_ * x));
        ag.bonus = loo_[j] - reported_;
        ag.payment = loo_[j] - (reported_ - ag.compensation);
        break;
      case LinearPrRule::kNoPayment:
      case LinearPrRule::kArcherTardos:
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
    LinearPrRule rule, const model::LatencyFamily& family,
    const alloc::Allocator& allocator, double arrival_rate,
    const model::BidProfile& base) {
  if (rule == LinearPrRule::kArcherTardos) return nullptr;
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
