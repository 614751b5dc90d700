#include "lbmv/core/family_round.h"

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {
namespace {

namespace v = lbmv::util::simd;
using v::DVec;

// Same transposed publish as the linear engine: four AgentOutcome rows per
// store_records6, so the struct must stay six packed doubles in field order.
static_assert(sizeof(AgentOutcome) == 6 * sizeof(double),
              "AgentOutcome must stay six packed doubles");
static_assert(std::is_standard_layout_v<AgentOutcome>,
              "AgentOutcome must stay standard-layout");
static_assert(offsetof(AgentOutcome, allocation) == 0 &&
                  offsetof(AgentOutcome, compensation) == 8 &&
                  offsetof(AgentOutcome, bonus) == 16 &&
                  offsetof(AgentOutcome, payment) == 24 &&
                  offsetof(AgentOutcome, valuation) == 32 &&
                  offsetof(AgentOutcome, utility) == 40,
              "AgentOutcome field order is part of the publish contract");

/// M/M/1 cost term x * (1/(mu - x)) against a service-rate plane (mu = 1/t),
/// in the generic path's operand order (cost = x * latency).
struct Mm1Cost {
  DVec operator()(DVec x, DVec mu) const {
    return v::mul(x, v::div(v::set1(1.0), v::sub(mu, x)));
  }
};

/// Workload cost term x * ((theta x)(1 + gamma x)) against a type plane, in
/// WorkloadLatency's operand order.
struct WorkloadCost {
  double gamma;
  DVec operator()(DVec x, DVec theta) const {
    return v::mul(x, v::mul(v::mul(theta, x),
                            v::add(v::set1(1.0), v::mul(v::set1(gamma), x))));
  }
};

/// Run block(i, count, lanes) over [0, n) in 4-lane steps, where
/// lanes(plane, pad) loads plane[i .. i+4).  The last partial block loads
/// copies padded with \p pad instead, so one vector body serves every lane
/// tail; callers pad x with 0 and type planes with 1, which makes a padded
/// lane cost nothing.
template <class Block>
void for_each_block(std::size_t n, Block block) {
  std::size_t i = 0;
  for (; i + v::kLanes <= n; i += v::kLanes) {
    block(i, v::kLanes,
          [i](const double* plane, double) { return v::load(plane + i); });
  }
  if (i == n) return;
  const std::size_t count = n - i;
  block(i, count, [i, count](const double* plane, double pad) {
    double lanes[v::kLanes] = {pad, pad, pad, pad};
    for (std::size_t k = 0; k < count; ++k) lanes[k] = plane[i + k];
    return v::load(lanes);
  });
}

/// sum_i cost(x_i, plane_i).
template <class Cost>
double sum_cost(const Cost& cost, std::size_t n, const double* x,
                const double* plane) {
  DVec acc = v::zero();
  for_each_block(n, [&](std::size_t, std::size_t, auto lanes) {
    acc = v::add(acc, cost(lanes(x, 0.0), lanes(plane, 1.0)));
  });
  return v::hsum(acc);
}

/// Publish pass shared by both families: per agent the verified cost on the
/// execution plane, the compensation on the rule's basis, the bonus off the
/// leave-one-out plane (null for kNoPayment only), and the transposed AoS
/// store of the six outcome fields.
template <VectorRule kRule, class Cost>
void publish_rule(const Cost& cost, std::size_t n, const double* bid_plane,
                  const double* exec_plane, const double* x,
                  const double* loo, double actual_total,
                  double reported_total, AgentOutcome* agents) {
  const DVec vact = v::set1(actual_total);
  const DVec vrep = v::set1(reported_total);
  for_each_block(n, [&](std::size_t i, std::size_t count, auto lanes) {
    const DVec vx = lanes(x, 0.0);
    const DVec costa = cost(vx, lanes(exec_plane, 1.0));
    DVec comp = v::zero();
    DVec bonus = v::zero();
    DVec pay = v::zero();
    if constexpr (kRule != VectorRule::kNoPayment) {
      const DVec vloo = lanes(loo, 0.0);
      if constexpr (kRule == VectorRule::kCompBonusExecution) {
        comp = costa;
        bonus = v::sub(vloo, vact);
        pay = v::add(comp, bonus);
      } else if constexpr (kRule == VectorRule::kCompBonusBid) {
        comp = cost(vx, lanes(bid_plane, 1.0));
        bonus = v::sub(vloo, vact);
        pay = v::add(comp, bonus);
      } else {
        static_assert(kRule == VectorRule::kVcg, "unsupported family rule");
        comp = cost(vx, lanes(bid_plane, 1.0));
        bonus = v::sub(vloo, vrep);
        pay = v::sub(vloo, v::sub(vrep, comp));
      }
    }
    const DVec val = v::neg(costa);
    const DVec util = v::add(pay, val);
    if (count == v::kLanes) {
      v::store_records6(reinterpret_cast<double*>(agents + i), vx, comp,
                        bonus, pay, val, util);
    } else {
      AgentOutcome block[v::kLanes];
      v::store_records6(reinterpret_cast<double*>(block), vx, comp, bonus,
                        pay, val, util);
      std::copy(block, block + count, agents + i);
    }
  });
}

template <class Cost>
void publish(VectorRule rule, const Cost& cost, std::size_t n,
             const double* bid_plane, const double* exec_plane,
             const double* x, const double* loo, double actual_total,
             double reported_total, AgentOutcome* agents) {
  switch (rule) {
    case VectorRule::kCompBonusExecution:
      publish_rule<VectorRule::kCompBonusExecution>(
          cost, n, bid_plane, exec_plane, x, loo, actual_total,
          reported_total, agents);
      break;
    case VectorRule::kCompBonusBid:
      publish_rule<VectorRule::kCompBonusBid>(cost, n, bid_plane, exec_plane,
                                              x, loo, actual_total,
                                              reported_total, agents);
      break;
    case VectorRule::kVcg:
      publish_rule<VectorRule::kVcg>(cost, n, bid_plane, exec_plane, x, loo,
                                     actual_total, reported_total, agents);
      break;
    default:
      publish_rule<VectorRule::kNoPayment>(cost, n, bid_plane, exec_plane, x,
                                           loo, actual_total, reported_total,
                                           agents);
      break;
  }
}

}  // namespace

bool run_mm1_vectorized(VectorRule rule, double arrival_rate,
                        std::span<const double> bids,
                        std::span<const double> executions,
                        MechanismOutcome& out, RoundWorkspace& ws) {
  LBMV_ASSERT(
      rule != VectorRule::kNone && rule != VectorRule::kArcherTardos,
      "the fused M/M/1 engine serves leave-one-out rules and no-payment");
  const std::size_t n = bids.size();
  ws.inv_bids.resize(n);
  ws.inv_execs.resize(n);
  double* const mu = ws.inv_bids.data();
  double* const mue = ws.inv_execs.data();

  // ---- P1: mu = 1/b and mu~ = 1/e planes under AND-accumulated masks -----
  const DVec vone = v::set1(1.0);
  const DVec vzero = v::zero();
  DVec positive = v::mask_all();
  std::size_t i = 0;
  for (; i + v::kLanes <= n; i += v::kLanes) {
    const DVec b = v::load(&bids[i]);
    const DVec e = v::load(&executions[i]);
    positive = v::mask_and(positive, v::mask_greater(b, vzero));
    positive = v::mask_and(positive, v::mask_greater(e, vzero));
    v::store(&mu[i], v::div(vone, b));
    v::store(&mue[i], v::div(vone, e));
  }
  bool inputs_ok = v::mask_all_true(positive);
  for (; i < n; ++i) {
    inputs_ok = inputs_ok && bids[i] > 0.0 && executions[i] > 0.0;
    mu[i] = 1.0 / bids[i];
    mue[i] = 1.0 / executions[i];
  }
  if (!inputs_ok) {
    // Re-run the scalar validation loop so the diagnostic names the first
    // offender in the order the generic path would.
    for (std::size_t j = 0; j < n; ++j) {
      LBMV_REQUIRE(bids[j] > 0.0, "bids must be positive");
      LBMV_REQUIRE(executions[j] > 0.0, "execution values must be positive");
    }
  }
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");

  // ---- active-set solve ---------------------------------------------------
  // The generic path's MM1Allocator runs this same solve on the same mu
  // plane, so an infeasible or near-saturated round throws its canonical
  // typed PreconditionError from here.  Idle computers get x = 0.
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  const alloc::Mm1Solve full =
      alloc::mm1_solve_into({mu, n}, arrival_rate, rates, ws.mm1_planes);
  const double* const x = rates.data();

  // The verified latency needs x_i < 1/e_i, which closed-form feasibility
  // does not imply; on a failure the generic path re-derives the round and
  // MM1Latency raises its canonical domain diagnostic.
  for (std::size_t j = 0; j < n; ++j) {
    if (!(x[j] < mue[j])) return false;
  }
  const double reported_total = sum_cost(Mm1Cost{}, n, x, mu);
  const double actual_total = sum_cost(Mm1Cost{}, n, x, mue);

  const double* loo = nullptr;
  if (rule != VectorRule::kNoPayment) {
    ws.leave_one_out.resize(n);
    alloc::mm1_leave_one_out_into({mu, n}, arrival_rate, full,
                                  ws.mm1_planes, ws.leave_one_out);
    loo = ws.leave_one_out.data();
  }

  out.agents.resize(n);
  publish(rule, Mm1Cost{}, n, mu, mue, x, loo, actual_total, reported_total,
          out.agents.data());
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.actual_latency = actual_total;
  out.reported_latency = reported_total;
  return true;
}

FamilyRoundStats run_workload_vectorized(const model::WorkloadFamily& family,
                                         VectorRule rule, double arrival_rate,
                                         std::span<const double> bids,
                                         std::span<const double> executions,
                                         MechanismOutcome& out,
                                         RoundWorkspace& ws) {
  LBMV_ASSERT(
      rule != VectorRule::kNone && rule != VectorRule::kArcherTardos,
      "the fused workload engine serves leave-one-out rules and no-payment");
  const std::size_t n = bids.size();
  for (std::size_t j = 0; j < n; ++j) {
    LBMV_REQUIRE(bids[j] > 0.0, "bids must be positive");
    LBMV_REQUIRE(executions[j] > 0.0, "execution values must be positive");
  }
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");
  const double gamma = family.gamma();
  const WorkloadCost cost{gamma};

  FamilyRoundStats stats;
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  const alloc::WorkloadSolve full =
      alloc::workload_solve_into(bids, gamma, arrival_rate, rates);
  stats.newton_iters += full.iterations;
  // The allocation is the exact optimum for the reported types, so the
  // solve's closed-form cost accumulation IS the reported latency total.
  const double reported_total = full.optimal_latency;
  const double actual_total =
      sum_cost(cost, n, rates.data(), executions.data());

  const double* loo = nullptr;
  if (rule != VectorRule::kNoPayment) {
    ws.leave_one_out.resize(n);
    stats.newton_iters +=
        alloc::workload_leave_one_out_into(bids, gamma, arrival_rate, full,
                                           rates, ws.leave_one_out,
                                           ws.family_scratch)
            .newton_iters;
    loo = ws.leave_one_out.data();
  }

  out.agents.resize(n);
  publish(rule, cost, n, bids.data(), executions.data(), rates.data(), loo,
          actual_total, reported_total, out.agents.data());
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.actual_latency = actual_total;
  out.reported_latency = reported_total;
  return stats;
}

}  // namespace lbmv::core
