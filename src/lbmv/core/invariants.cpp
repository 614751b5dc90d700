#include "lbmv/core/invariants.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lbmv/obs/monitor.h"

namespace lbmv::core {

std::size_t check_round_invariants(std::span<const double> bids,
                                   std::span<const double> executions,
                                   double arrival_rate,
                                   const MechanismOutcome& outcome,
                                   const RoundInvariantOptions& options) {
  obs::Monitors& monitors = obs::Monitors::get();
  const std::size_t n = outcome.agents.size();
  const std::span<const double> x = outcome.allocation.rates();
  std::size_t violations = 0;

  // Feasibility: the allocation must ship exactly R.
  {
    double shipped = 0.0;
    for (const double xi : x) shipped += xi;
    const double residual = (shipped - arrival_rate) / arrival_rate;
    if (!monitors.feasibility.check(
            residual, {{"n", static_cast<double>(n)},
                       {"shipped", shipped},
                       {"arrival_rate", arrival_rate}})) {
      ++violations;
    }
  }

  // Payment decomposition: P_i = C_i + B_i, agent by agent.
  {
    double worst = 0.0;
    std::size_t worst_agent = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const AgentOutcome& a = outcome.agents[i];
      const double parts = a.compensation + a.bonus;
      const double scale =
          std::max({1.0, std::fabs(a.payment), std::fabs(parts)});
      const double rel = std::fabs(a.payment - parts) / scale;
      if (rel > worst) {
        worst = rel;
        worst_agent = i;
      }
    }
    if (!monitors.payment_decomposition.check(
            worst, {{"agent", static_cast<double>(worst_agent)},
                    {"payment", outcome.agents[worst_agent].payment},
                    {"parts", outcome.agents[worst_agent].compensation +
                                  outcome.agents[worst_agent].bonus}})) {
      ++violations;
    }
  }

  // Voluntary participation at consistent rounds (file comment: only
  // sound where the allocation is exactly the optimum — PR-on-linear, or
  // a nonlinear family under its exact allocator).
  const bool exact_optimum =
      options.linear_pr || options.mm1_exact || options.workload_exact;
  if (options.participation_guaranteed && exact_optimum) {
    bool consistent = bids.size() == n && executions.size() == n;
    for (std::size_t i = 0; consistent && i < n; ++i) {
      consistent = bids[i] == executions[i];
    }
    if (consistent) {
      double min_utility = 0.0;
      std::size_t min_agent = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (outcome.agents[i].utility < min_utility) {
          min_utility = outcome.agents[i].utility;
          min_agent = i;
        }
      }
      const double scale = std::max(1.0, std::fabs(outcome.reported_latency));
      const double deficit = std::max(0.0, -min_utility) / scale;
      if (!monitors.participation.check(
              deficit, {{"agent", static_cast<double>(min_agent)},
                        {"utility", min_utility},
                        {"reported_latency", outcome.reported_latency}})) {
        ++violations;
      }
    }
  }

  // KKT stationarity: the per-family marginal cost c_j'(x_j) is constant
  // across agents receiving load at the optimum.  Linear: d/dx [b x^2]
  // (tracked as b_j x_j, half the marginal — the spread is scale-free);
  // M/M/1: mu_j / (mu_j - x_j)^2 over active agents only (idle computers
  // sit at a corner and get the inequality check below);
  // workload: 2 b_j x_j + 3 b_j gamma x_j^2, always interior.
  if ((options.linear_pr || options.mm1_exact || options.workload_exact) &&
      bids.size() == n && n > 0) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    std::size_t counted = 0;
    for (std::size_t j = 0; j < n; ++j) {
      double marginal;
      if (options.mm1_exact) {
        if (x[j] == 0.0) continue;
        const double mu = 1.0 / bids[j];
        const double headroom = mu - x[j];
        marginal = mu / (headroom * headroom);
      } else if (options.workload_exact) {
        marginal = 2.0 * bids[j] * x[j] +
                   3.0 * bids[j] * options.workload_gamma * x[j] * x[j];
      } else {
        marginal = bids[j] * x[j];
      }
      lo = std::min(lo, marginal);
      hi = std::max(hi, marginal);
      ++counted;
    }
    if (counted > 0) {
      const double spread = (hi - lo) / std::max(std::fabs(hi), 1e-300);
      if (!monitors.kkt_stationarity.check(
              spread, {{"n", static_cast<double>(n)},
                       {"marginal_min", lo},
                       {"marginal_max", hi}})) {
        ++violations;
      }
    }
    // An idle M/M/1 computer is optimal only while its marginal cost at
    // zero, 1/mu_j, is at least the active multiplier lambda = 1/c^2 (that
    // is, a_j <= c): a computer wrongly left idle fails mu_j * lambda <= 1.
    // Each offender is recorded with its index; clean rounds add no checks.
    if (options.mm1_exact && counted > 0) {
      for (std::size_t j = 0; j < n; ++j) {
        if (x[j] != 0.0) continue;
        const double mu = 1.0 / bids[j];
        const double excess = mu * lo - 1.0;
        if (excess > monitors.kkt_stationarity.tolerance()) {
          monitors.kkt_stationarity.check(
              excess, {{"agent", static_cast<double>(j)},
                       {"mu", mu},
                       {"marginal_min", lo}});
          ++violations;
        }
      }
    }
  }

  return violations;
}

}  // namespace lbmv::core
