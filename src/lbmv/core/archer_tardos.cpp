#include "lbmv/core/archer_tardos.h"

#include "lbmv/util/error.h"
#include "lbmv/util/integrate.h"

namespace lbmv::core {

double archer_tardos_tail_integral(double bid, double inverse_bid_sum_rest,
                                   double arrival_rate) {
  LBMV_REQUIRE(bid > 0.0, "bid must be positive");
  LBMV_REQUIRE(inverse_bid_sum_rest > 0.0,
               "the other agents must contribute positive capacity");
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  const double s = inverse_bid_sum_rest;
  return arrival_rate * arrival_rate / (s * (1.0 + bid * s));
}

ArcherTardosMechanism::ArcherTardosMechanism()
    : Mechanism(default_allocator()) {}

double ArcherTardosMechanism::tail_integral_numeric(
    double bid, double inverse_bid_sum_rest, double arrival_rate,
    double tol) {
  const double s = inverse_bid_sum_rest;
  const double r2 = arrival_rate * arrival_rate;
  return util::integrate_to_infinity(
      [s, r2](double u) {
        const double d = 1.0 + u * s;
        return r2 / (d * d);
      },
      bid, tol);
}

void ArcherTardosMechanism::fill_payments(
    const model::LatencyFamily& family, double arrival_rate,
    std::span<const double> bids, std::span<const double> /*executions*/,
    const model::Allocation& x, double /*actual_latency*/,
    double /*reported_latency*/, std::vector<AgentOutcome>& outcomes,
    RoundWorkspace& /*ws*/) const {
  LBMV_REQUIRE(dynamic_cast<const model::LinearFamily*>(&family) != nullptr,
               "the Archer–Tardos closed form is derived for the linear "
               "family under PR allocation");
  // s_i = sum_{j != i} 1/b_j = S - 1/b_i: one pass for S — the PR
  // allocation's own index-order sum — replaces an O(n^2) per-agent re-sum.
  double inverse_bid_sum = 0.0;
  for (double b : bids) inverse_bid_sum += 1.0 / b;
  const std::span<const double> rates = x.rates();
  for (std::size_t i = 0; i < bids.size(); ++i) {
    auto& agent = outcomes[i];
    const double s = inverse_bid_sum - 1.0 / bids[i];
    require_rest_capacity(s, i);
    const double work = rates[i] * rates[i];
    // Bookkeeping split mirrors the formula: b_i * w_i (the reported cost,
    // analogous to a compensation) plus the tail integral (the incentive
    // term).
    agent.compensation = bids[i] * work;
    agent.bonus = archer_tardos_tail_integral(bids[i], s, arrival_rate);
    agent.payment = agent.compensation + agent.bonus;
  }
}

}  // namespace lbmv::core
