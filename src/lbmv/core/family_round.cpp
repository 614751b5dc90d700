#include "lbmv/core/family_round.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/rule_terms.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {
namespace {

namespace v = lbmv::util::simd;
using v::DVec;

/// M/M/1 cost term model::mm1_cost against a service-rate plane (mu = 1/t).
struct Mm1Cost {
  DVec operator()(DVec x, DVec mu) const { return model::mm1_cost(x, mu); }
};

/// Workload cost term model::workload_cost against a type plane.
struct WorkloadCost {
  double gamma;
  DVec operator()(DVec x, DVec theta) const {
    return model::workload_cost(x, theta, gamma);
  }
};

/// sum_i cost(x_i, plane_i).  Padded tail lanes (x = 0, type plane 1)
/// cost nothing, here and in the publish pass.
template <class Cost>
double sum_cost(const Cost& cost, std::size_t n, const double* x,
                const double* plane) {
  DVec acc = v::zero();
  v::for_each_block(n, [&](std::size_t, std::size_t, auto lanes) {
    acc = v::add(acc, cost(lanes(x, 0.0), lanes(plane, 1.0)));
  });
  return v::hsum(acc);
}

/// One step of a nonlinear round's planes as rule terms (rule_terms.h):
/// the rate x, cost(x, type) on the bid and execution planes, the
/// leave-one-out plane (null under no-payment, which never reads it) and
/// the round's latency totals.
template <class Cost, class Lanes>
struct PlaneTerms {
  const Cost& cost;
  Lanes lanes;
  const double* bid_plane;
  const double* exec_plane;
  const double* loo_plane;
  DVec x, actual_total, reported_total;

  DVec exec_cost() const { return cost(x, lanes(exec_plane, 1.0)); }
  DVec bid_cost() const { return cost(x, lanes(bid_plane, 1.0)); }
  DVec loo() const { return lanes(loo_plane, 0.0); }
  DVec actual() const { return actual_total; }
  DVec reported() const { return reported_total; }
};

/// The epilogue both families share: publish a round still \p served
/// through publish_block, hand the rate plane and totals to \p out either
/// way, and return whether the round is served (every value finite).
template <class Cost>
[[nodiscard]] bool publish_round(PaymentRule rule, const Cost cost,
                                 bool served, const double* bid_plane,
                                 const double* exec_plane,
                                 std::vector<double>&& rates,
                                 const double* loo, double actual_total,
                                 double reported_total,
                                 MechanismOutcome& out) {
  if (served) {
    out.agents.resize(rates.size());
    const double* const x = rates.data();
    const DVec vact = v::set1(actual_total);
    const DVec vrep = v::set1(reported_total);
    served = with_payment_rule(rule, [&](auto rule_tag) {
      return publish_block(
          rule_tag, rates.size(),
          [&](auto lanes) {
            return PlaneTerms<Cost, decltype(lanes)>{
                cost, lanes, bid_plane, exec_plane, loo, lanes(x, 0.0), vact,
                vrep};
          },
          out.agents.data(), nullptr);
    });
  }
  out.allocation = model::Allocation::from_validated(std::move(rates));
  out.actual_latency = actual_total;
  out.reported_latency = reported_total;
  return served;
}

}  // namespace

bool run_mm1_vectorized(PaymentRule rule, double arrival_rate,
                        std::span<const double> bids,
                        std::span<const double> executions,
                        MechanismOutcome& out, RoundWorkspace& ws) {
  LBMV_ASSERT(rule != PaymentRule::kArcherTardos,
              "the fused M/M/1 engine serves leave-one-out rules and "
              "no-payment");
  const std::size_t n = bids.size();
  ws.inv_bids.resize(n);
  ws.inv_execs.resize(n);
  double* const mu = ws.inv_bids.data();
  double* const mue = ws.inv_execs.data();

  // ---- P1: mu = 1/b and mu~ = 1/e planes under AND-accumulated masks -----
  // Padded tail lanes (b = e = 1) pass the mask and are never stored.
  const DVec vzero = v::zero();
  const DVec vinf = v::set1(std::numeric_limits<double>::infinity());
  DVec valid = v::mask_all();
  v::for_each_block(n, [&](std::size_t i, std::size_t count, auto lanes) {
    const DVec b = lanes(bids.data(), 1.0);
    const DVec e = lanes(executions.data(), 1.0);
    valid = v::mask_and(valid, v::mask_and(v::mask_greater(b, vzero),
                                           v::mask_greater(vinf, b)));
    valid = v::mask_and(valid, v::mask_and(v::mask_greater(e, vzero),
                                           v::mask_greater(vinf, e)));
    v::store_first(&mu[i], 1.0 / b, count);
    v::store_first(&mue[i], 1.0 / e, count);
  });
  const bool inputs_ok = v::mask_all_true(valid) && arrival_rate > 0.0 &&
                         std::isfinite(arrival_rate);
  // The shared check names the first offender.
  if (!inputs_ok) model::require_valid_round(arrival_rate, bids, executions);

  // ---- active-set solve ---------------------------------------------------
  // The reference path's MM1Allocator runs this same solve on the same mu
  // plane, so an infeasible or near-saturated round throws its canonical
  // typed PreconditionError from here.  Idle computers get x = 0.
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  const alloc::Mm1Solve full =
      alloc::mm1_solve_into({mu, n}, arrival_rate, rates, ws.mm1_planes);
  const double* const x = rates.data();

  // The verified latency needs x_i < 1/e_i, which closed-form feasibility
  // does not imply: the first overloaded computer in index order raises
  // the reference path's domain diagnostic.
  for (std::size_t j = 0; j < n; ++j) {
    alloc::require_mm1_capacity(j, x[j], mue[j]);
  }
  const double reported_total = sum_cost(Mm1Cost{}, n, x, mu);
  const double actual_total = sum_cost(Mm1Cost{}, n, x, mue);
  const bool served =
      std::isfinite(reported_total) && std::isfinite(actual_total);

  const double* loo = nullptr;
  if (served && reads_leave_one_out(rule)) {
    ws.leave_one_out.resize(n);
    alloc::mm1_leave_one_out_into({mu, n}, arrival_rate, full, ws.mm1_planes,
                                  ws.leave_one_out);
    loo = ws.leave_one_out.data();
  }
  return publish_round(rule, Mm1Cost{}, served, mu, mue, std::move(rates),
                       loo, actual_total, reported_total, out);
}

bool run_workload_vectorized(const model::WorkloadFamily& family,
                             PaymentRule rule, double arrival_rate,
                             std::span<const double> bids,
                             std::span<const double> executions,
                             MechanismOutcome& out, RoundWorkspace& ws,
                             FusedRoundStats& stats) {
  LBMV_ASSERT(rule != PaymentRule::kArcherTardos,
              "the fused workload engine serves leave-one-out rules and "
              "no-payment");
  const std::size_t n = bids.size();
  model::require_valid_round(arrival_rate, bids, executions);
  const double gamma = family.gamma();
  const WorkloadCost cost{gamma};

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
  // Overflowing rates (e.g. an astronomically large arrival rate) leave
  // non-finite totals; the reference path's Allocation rejects them.
  bool served = std::isfinite(reported_total) && std::isfinite(actual_total);

  const double* loo = nullptr;
  if (served && reads_leave_one_out(rule)) {
    ws.leave_one_out.resize(n);
    stats.newton_iters +=
        alloc::workload_leave_one_out_into(bids, gamma, arrival_rate, full,
                                           rates, ws.leave_one_out,
                                           ws.family_scratch)
            .newton_iters;
    loo = ws.leave_one_out.data();
  }
  return publish_round(rule, cost, served, bids.data(), executions.data(),
                       std::move(rates), loo, actual_total, reported_total,
                       out);
}

}  // namespace lbmv::core
