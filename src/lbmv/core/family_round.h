#pragma once

/// \file family_round.h
/// Fused vectorized rounds for the nonlinear latency families (DESIGN.md
/// §14).
///
/// The generic round path handles any convex family by building 2n latency
/// function objects per round and dispatching virtually per agent — correct
/// everywhere, but the heap traffic and call overhead dwarf the O(n)
/// closed-form math for the two nonlinear families the repo ships exact
/// allocators for.  This header provides their fused counterparts, modelled
/// on the linear engine (simd_round.h): 4-lane kernels over contiguous
/// workspace planes, AND-accumulated validity masks tested once per pass,
/// the transposed util::simd::store_records6 publish, and zero steady-state
/// heap allocations once the workspace planes have grown to n.
///
/// Neither engine holds any leave-one-out algebra: each calls its
/// family's single definition in alloc/, the same function the allocator's
/// leave_one_out_into and the profile contexts use.
///
/// **M/M/1** (run_mm1_vectorized).  With mu_i = 1/b_i the engine builds
/// the mu and 1/e planes in 4-lane passes, takes the allocation from the
/// active-set solve (alloc::mm1_solve_into; idle computers get x = 0 and
/// so zero compensation) and the leave-one-out plane from the sorted
/// prefix that solve leaves behind (alloc::mm1_leave_one_out_into,
/// O(n log n), O(n) when every computer is active).  Idle-server rounds
/// are served like any other.  The solve and the leave-one-out pass throw
/// the reference path's own typed PreconditionErrors (capacity exceeded,
/// saturation guard, the rest set without the named computer).  The
/// engine declines (returns false) when the allocation breaks some
/// computer's execution domain x_i < 1/e_i; the reference path then
/// raises the canonical diagnostic.
///
/// **Workload-dependent rates** (run_workload_vectorized).  The family
/// l(x) = theta x (1 + gamma x) is always interior, so the fused round
/// succeeds on every representable profile: one monotone Newton solve on the KKT conservation
/// residual for the full set (alloc/workload_allocator.h), the
/// leave-one-out plane from the K-term moment expansion around that
/// multiplier (alloc::workload_leave_one_out_into, O(nK) plus an exact
/// warm-started solve for any agent that does not certify), and one fused
/// publish pass.  The reported Newton count covers only O(n) KKT sweeps,
/// the full-set solve and any fallbacks, and feeds the
/// lbmv_mech_newton_iters_total probe.
///
/// Both engines validate with the shared model::require_valid_round check
/// and decline any round whose published values or latency totals would be
/// non-finite (e.g. overflowing rates), so a fused result is always finite
/// and anything else is the reference path's.  Both run the agent axis
/// serial: at the n these families target the 4-lane kernels are already
/// memory-lean, and a serial fixed-order pass keeps results trivially
/// independent of thread count.  Outcomes agree with the reference path
/// (Mechanism::run_reference_into) to a bounded relative error
/// (reassociated reductions), the contract the differential suites in
/// tests/test_nonlinear_kernels.cpp and tests/test_nonlinear_loo.cpp
/// enforce at 1e-9.

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
/// return false when the allocation overloads some computer's execution
/// rate or a published value would be non-finite (\p out's contents are
/// then unspecified; the reference path owns the round).  Infeasible rounds
/// and saturated rest sets throw the reference path's typed
/// PreconditionErrors directly.  \p rule must not be kArcherTardos (whose
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
