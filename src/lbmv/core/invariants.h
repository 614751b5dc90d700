#pragma once

/// \file invariants.h
/// Online verification of a completed mechanism round.
///
/// The residual math for the obs invariant monitors (obs/monitor.h): one
/// pass over a `MechanismOutcome` checks the guarantees the paper proves
/// and the closed forms promise —
///
///   * **feasibility** — the allocation ships exactly the arrival rate,
///     |sum_i x_i - R| / R (PR closed form, Thm 2.1's constraint);
///   * **payment decomposition** — P_i = C_i + B_i for every paying rule
///     (Definition 3.2's additive form);
///   * **voluntary participation** — at a *consistent* round (t~ = b,
///     every agent executing exactly as bid) utilities are nonnegative
///     for any mechanism paying leave-one-out bonuses (Thm 3.2 without
///     even assuming truthful bids: U_i collapses to L_{-i} - L >= 0);
///     checked only when the mechanism guarantees it (no-payment opts
///     out) and the round is the PR-on-linear configuration, where the
///     allocation is exactly optimal;
///   * **KKT stationarity** — on linear rounds the optimum equalises the
///     marginals d/dx_j [b_j x_j^2] = 2 b_j x_j, so the relative spread
///     of b_j x_j across agents is the allocator's epsilon-optimality
///     residual (alloc/kkt.h's certificate, reduced to a closed form
///     cheap enough for every round).
///
/// Callers gate on `obs::enabled()`; the checks are a relaxed-load no-op
/// when obs is off and cost four O(n) passes when on.  Violations land in
/// the monitor counters/histograms plus the flight recorder, so a wrong
/// round is attributable after the fact (see obs/flight_recorder.h).

#include <cstddef>
#include <span>

#include "lbmv/core/batch.h"
#include "lbmv/core/mechanism.h"

namespace lbmv::core {

struct RoundInvariantOptions {
  /// The family the round's allocator solves exactly, or kGeneric when it
  /// solves none (the feasibility and decomposition checks only).  An
  /// exact family arms the participation monitor (the allocation is the
  /// optimum) and its KKT residual:
  ///   * kLinear — PR on linear latencies: the marginals 2 b_j x_j are
  ///     equalised;
  ///   * kMm1 — M/M/1 under the exact MM1Allocator: the active marginals
  ///     mu_j / (mu_j - x_j)^2 with mu_j = 1/b_j are equalised, and every
  ///     idle computer (x_j = 0) must have a marginal cost at zero 1/mu_j
  ///     no lower than that multiplier; each idle offender is recorded
  ///     with its agent index;
  ///   * kWorkload — the workload family under the exact
  ///     WorkloadAllocator: the marginals 2 b_j x_j + 3 b_j gamma x_j^2
  ///     are equalised at the (always interior) optimum.
  FamilyKind exact = FamilyKind::kGeneric;
  /// Whether the mechanism guarantees nonnegative utility at consistent
  /// rounds (Mechanism::guarantees_voluntary_participation()).
  bool participation_guaranteed = true;
  /// Family-level congestion coefficient when exact == kWorkload.
  double workload_gamma = 0.0;
};

/// Feed one completed round through the invariant monitors.  Returns the
/// number of violations recorded (0 on a healthy round).
std::size_t check_round_invariants(std::span<const double> bids,
                                   std::span<const double> executions,
                                   double arrival_rate,
                                   const MechanismOutcome& outcome,
                                   const RoundInvariantOptions& options);

}  // namespace lbmv::core
