#include "lbmv/core/vcg.h"

#include "lbmv/core/batch.h"

namespace lbmv::core {

VcgMechanism::VcgMechanism() : VcgMechanism(default_allocator()) {}

VcgMechanism::VcgMechanism(std::shared_ptr<const alloc::Allocator> allocator)
    : Mechanism(std::move(allocator)) {}

void VcgMechanism::fill_payments(const model::LatencyFamily& family,
                                 double arrival_rate,
                                 std::span<const double> bids,
                                 std::span<const double> /*executions*/,
                                 const model::Allocation& x,
                                 double /*actual_latency*/,
                                 double reported_latency,
                                 std::vector<AgentOutcome>& outcomes,
                                 RoundWorkspace& ws) const {
  // All terms below use the *bids*: VCG never sees execution values.  The
  // engine already evaluated L(x, b) = sum_j c_j(x; b_j) with the same
  // per-term forms and summation order, so reported_latency IS the total
  // reported cost; each agent's "others" term is the total minus its own
  // contribution instead of an O(n) re-sum.
  const std::size_t n = bids.size();
  const std::span<const double> rates = x.rates();
  ws.own_cost.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double xj = rates[j];
    ws.own_cost[j] = xj == 0.0 ? 0.0 : ws.bid_fns[j]->cost(xj);
  }
  allocator().leave_one_out_into(family, bids, arrival_rate, ws.leave_one_out);

  for (std::size_t i = 0; i < n; ++i) {
    auto& agent = outcomes[i];
    const double others_cost = reported_latency - ws.own_cost[i];

    // Clarke pivot; for bookkeeping we expose the pivot as "bonus" and the
    // agent's own reported cost as "compensation", mirroring the fact that
    // P_i = c_i(b) + (L_{-i} - L(b)).
    agent.compensation = ws.own_cost[i];
    agent.bonus = ws.leave_one_out[i] - reported_latency;
    agent.payment = ws.leave_one_out[i] - others_cost;
  }
}

}  // namespace lbmv::core
