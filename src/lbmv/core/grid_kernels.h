#pragma once

/// \file grid_kernels.h
/// The lane driver behind the closed-form contexts' deviation sweeps
/// (DESIGN.md §13).
///
/// Every strategic sweep in the repo — best-response scans, audit grids,
/// learning counterfactuals, tournament regret probes — evaluates ONE
/// agent's utility at MANY candidate bids against the same frozen profile
/// context.  The linear-PR context writes its deviation closed form once,
/// as a template over the value type: utility() is its double
/// instantiation, and its ProfileUtilityContext::sweep override runs its
/// util::simd::DVec instantiation through lane_sweep below, four
/// candidates per instruction (AVX2 or the bit-identical 4-lane
/// emulation).  Each lane operation is the scalar IEEE operation, so the
/// sweep equals a loop of utility() calls bit for bit.  The M/M/1 and
/// workload contexts have no lane form and keep the base class's
/// per-candidate sweep.
///
/// lane_sweep owns the generic part: tail padding (the spare lanes of the
/// last block repeat the last candidate), the validity mask (positive
/// finite bids, AND-ed with the context's own guards), and the running
/// 4-lane (max, argmax) pair resolved toward the smallest index, which
/// reproduces a strictly-greater first-wins scalar scan.  A block whose
/// mask fails is re-evaluated through the context's scalar query
/// (ProfileUtilityContext::checked_utility, the uncounted utility()),
/// which raises the canonical PreconditionError for the first offending
/// candidate; a sweep in which any lane's utility is not finite re-checks
/// every candidate through it.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <span>

#include "lbmv/core/mechanism.h"
#include "lbmv/util/simd.h"

namespace lbmv::core {

/// Number of padded lanes a lane sweep of \p grid_size candidates
/// evaluates.
[[nodiscard]] constexpr std::size_t grid_lanes_padded(std::size_t grid_size) {
  return (util::simd::kLanes - grid_size % util::simd::kLanes) %
         util::simd::kLanes;
}

/// Sweep \p bids (non-empty, candidate 0 already checked) for one agent at
/// one execution value, writing utilities to \p out and/or the first-index
/// argmax to \p best (either may be null).  lanes(b, ok) returns the four
/// candidates' utilities; \p ok arrives as the bid-validity mask and lanes
/// may AND its own gates in.  scalar(bid) is the context's checked scalar
/// query at the same agent and execution.
template <class Scalar, class Lanes>
void lane_sweep(std::span<const double> bids, double* out, GridBest* best,
                const Scalar& scalar, const Lanes& lanes) {
  namespace simd = util::simd;
  using simd::DVec;
  constexpr std::size_t kL = simd::kLanes;
  const std::size_t size = bids.size();
  const DVec inf = simd::set1(std::numeric_limits<double>::infinity());
  const double lane_offsets[kL] = {0.0, 1.0, 2.0, 3.0};
  const DVec base_idx = simd::load(lane_offsets);
  DVec best_v = -inf;
  DVec best_i = simd::zero();
  // Stays exactly zero while every lane-served utility is finite.
  DVec finite = simd::zero();
  // b's four utilities into u; false when any lane is off the lane form.
  const auto evaluate = [&](DVec b, DVec& u) {
    DVec ok = simd::mask_and(simd::mask_greater(b, simd::zero()),
                             simd::mask_greater(inf, b));
    u = lanes(b, ok);
    if (!simd::mask_all_true(ok)) return false;
    finite = simd::accumulate_finite(finite, u);
    return true;
  };
  // The scalar oracle owns a block with any lane off the lane form: slow
  // paths and typed errors alike, in index order.
  const auto scalar_block = [&](DVec b) {
    double u[kL];
    for (std::size_t l = 0; l < kL; ++l) u[l] = scalar(simd::lane(b, l));
    return simd::load(u);
  };
  const auto emit = [&](std::size_t k, std::size_t count, DVec u) {
    if (out != nullptr) simd::store_first(out + k, u, count);
    if (best != nullptr) {
      // Padded lanes carry indices >= size, larger than the genuine copy's,
      // so the lowest-index tie-break below never picks one.
      const DVec m = simd::mask_greater(u, best_v);
      best_v = simd::select(m, u, best_v);
      best_i = simd::select(m, base_idx + static_cast<double>(k), best_i);
    }
  };

  const std::size_t nfull = size - size % kL;
  std::size_t k = 0;
  while (k < nfull) {
    // Call-free inner loop (its splatted constants stay in registers)
    // until a block leaves the lane form.
    for (; k < nfull; k += kL) {
      DVec u;
      if (!evaluate(simd::load(bids.data() + k), u)) break;
      emit(k, kL, u);
    }
    if (k < nfull) {
      emit(k, kL, scalar_block(simd::load(bids.data() + k)));
      k += kL;
    }
  }
  if (k < size) {
    // Tail block: the spare lanes repeat the last candidate.
    double padded[kL];
    for (std::size_t l = 0; l < kL; ++l) {
      padded[l] = bids[std::min(k + l, size - 1)];
    }
    const DVec b = simd::load(padded);
    DVec u;
    if (!evaluate(b, u)) u = scalar_block(b);
    emit(k, size - k, u);
  }
  if (simd::hsum(finite) != 0.0) {
    // A lane left the double range: the scalar query raises its typed error
    // at the first such candidate (where it does not, it returns the lanes'
    // bits).
    for (const double b : bids) (void)scalar(b);
  }
  if (best == nullptr) return;
  double bv = simd::lane(best_v, 0);
  double bi = simd::lane(best_i, 0);
  for (std::size_t l = 1; l < kL; ++l) {
    const double v = simd::lane(best_v, l);
    const double i = simd::lane(best_i, l);
    if (v > bv || (v == bv && i < bi)) {
      bv = v;
      bi = i;
    }
  }
  *best = {static_cast<std::size_t>(bi), bv};
}

}  // namespace lbmv::core
