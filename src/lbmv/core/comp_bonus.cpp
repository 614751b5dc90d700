#include "lbmv/core/comp_bonus.h"

#include "lbmv/core/batch.h"

namespace lbmv::core {

CompBonusMechanism::CompBonusMechanism()
    : CompBonusMechanism(default_allocator()) {}

CompBonusMechanism::CompBonusMechanism(
    std::shared_ptr<const alloc::Allocator> allocator,
    CompensationBasis basis)
    : Mechanism(std::move(allocator)), basis_(basis) {}

std::string CompBonusMechanism::name() const {
  return basis_ == CompensationBasis::kExecution
             ? "comp-bonus"
             : "comp-bonus(bid-compensation)";
}

void CompBonusMechanism::fill_payments(
    const model::LatencyFamily& family, double arrival_rate,
    std::span<const double> bids, std::span<const double> /*executions*/,
    const model::Allocation& x, double actual_latency,
    double /*reported_latency*/, std::vector<AgentOutcome>& outcomes,
    RoundWorkspace& ws) const {
  // All n leave-one-out optima in one batch call.
  allocator().leave_one_out_into(family, bids, arrival_rate, ws.leave_one_out);

  // Compensation: the agent's own cost term at the chosen basis value, off
  // the latency functions the round already built.
  const auto& basis_fns =
      basis_ == CompensationBasis::kExecution ? ws.exec_fns : ws.bid_fns;
  const std::span<const double> rates = x.rates();
  for (std::size_t i = 0; i < bids.size(); ++i) {
    auto& agent = outcomes[i];
    const double xi = rates[i];
    agent.compensation = xi == 0.0 ? 0.0 : basis_fns[i]->cost(xi);
    // Bonus: optimal latency without agent i minus the verified latency.
    agent.bonus = ws.leave_one_out[i] - actual_latency;
    agent.payment = agent.compensation + agent.bonus;
  }
}

}  // namespace lbmv::core
