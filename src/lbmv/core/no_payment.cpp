#include "lbmv/core/no_payment.h"

namespace lbmv::core {

NoPaymentMechanism::NoPaymentMechanism()
    : NoPaymentMechanism(default_allocator()) {}

NoPaymentMechanism::NoPaymentMechanism(
    std::shared_ptr<const alloc::Allocator> allocator)
    : Mechanism(std::move(allocator)) {}

void NoPaymentMechanism::fill_payments(
    const model::LatencyFamily&, double, std::span<const double>,
    std::span<const double>, const model::Allocation&, double, double,
    std::vector<AgentOutcome>& outcomes, RoundWorkspace&) const {
  for (auto& agent : outcomes) {
    agent.compensation = 0.0;
    agent.bonus = 0.0;
    agent.payment = 0.0;
  }
}

}  // namespace lbmv::core
