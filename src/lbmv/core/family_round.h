#pragma once

/// \file family_round.h
/// Fused vectorized rounds for the nonlinear latency families (DESIGN.md
/// §14), modelled on the linear engine (simd_round.h): 4-lane kernels over
/// workspace planes, AND-accumulated validity masks, no steady-state heap
/// allocation and no per-agent virtual dispatch.
///
/// Neither engine holds leave-one-out or payment-rule algebra: each calls
/// its family's single leave-one-out definition in alloc/ (the one the
/// allocator's leave_one_out_into and the profile contexts use), and both
/// publish through rule_terms.h's publish_block, supplying only the rate
/// plane, their cost term and the leave-one-out plane.
///
/// **M/M/1** (run_mm1_vectorized).  With mu_i = 1/b_i the allocation comes
/// from the active-set solve (alloc::mm1_solve_into; idle computers get
/// x = 0) and the leave-one-out plane from the sorted prefix it leaves
/// behind (alloc::mm1_leave_one_out_into, O(n log n), O(n) when every
/// computer is active).  Both throw the reference path's own typed
/// PreconditionErrors, and so does the execution-domain check
/// 0 <= x_i < 1/e_i (alloc::require_mm1_capacity, in index order).
///
/// **Workload-dependent rates** (run_workload_vectorized).  The family
/// l(x) = theta x (1 + gamma x) is always interior: one monotone Newton
/// solve on the KKT conservation residual (alloc/workload_allocator.h) and
/// the leave-one-out plane from the moment expansion around its multiplier
/// (alloc::workload_leave_one_out_into).  The reported Newton count covers
/// only O(n) KKT sweeps and feeds lbmv_mech_newton_iters_total.
///
/// Both validate with model::require_valid_round, decline any round whose
/// published values or totals would be non-finite (the reference path then
/// owns it), and run the agent axis serially, so results do not depend on
/// thread count.  They agree with Mechanism::run_reference_into to 1e-9
/// relative (tests/test_nonlinear_kernels.cpp, test_nonlinear_loo.cpp).

#include <cstddef>
#include <span>

#include "lbmv/core/mechanism.h"

namespace lbmv::model {
class WorkloadFamily;
}  // namespace lbmv::model

namespace lbmv::core {

class RoundWorkspace;     // batch.h
struct FusedRoundStats;  // batch.h

/// Run one fused M/M/1 round end to end (validation, active-set
/// allocation, latency totals, payments, utilities) and return true, or
/// return false when a published value would be non-finite (\p out's
/// contents are then unspecified; the reference path owns the round).
/// Infeasible rounds, saturated rest sets and execution overloads throw
/// the reference path's typed PreconditionErrors directly.  \p rule must not be kArcherTardos (whose
/// tail integral is linear-family-specific).  Bids and executions are mean
/// service times (MM1Family's convention).
[[nodiscard]] bool run_mm1_vectorized(PaymentRule rule, double arrival_rate,
                                      std::span<const double> bids,
                                      std::span<const double> executions,
                                      MechanismOutcome& out,
                                      RoundWorkspace& ws);

/// Run one fused workload-family round end to end and return true, or
/// return false when a published value would be non-finite (the reference
/// path owns the round).  Same rule domain as the M/M/1 engine; \p stats
/// receives the Newton sweep count.
[[nodiscard]] bool run_workload_vectorized(
    const model::WorkloadFamily& family, PaymentRule rule,
    double arrival_rate, std::span<const double> bids,
    std::span<const double> executions, MechanismOutcome& out,
    RoundWorkspace& ws, FusedRoundStats& stats);

}  // namespace lbmv::core
