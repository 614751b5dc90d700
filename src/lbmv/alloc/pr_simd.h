#pragma once

/// \file pr_simd.h
/// Vectorized reciprocal block kernel for the PR closed forms (DESIGN.md
/// §12).
///
/// pr_reciprocal_block processes one contiguous block of agents with the
/// 4-lane vectors of util/simd.h and a *fixed* in-block reduction tree: two
/// vector accumulators over 8-agent steps, one leftover full vector into the
/// first accumulator, the fixed horizontal sum (l0+l1)+(l2+l3) of their
/// lane-wise total, then any <4-agent tail appended scalar in index order.
/// The tree depends only on the block's length, and the round engine
/// (core/simd_round.h) cuts agents into fixed-size blocks and adds the
/// returned partials in block order, so the block grid alone fixes S and W.
/// The engine's fused publish pass derives the leave-one-out and
/// Archer–Tardos terms from the reciprocal plane in-register; the block's
/// largest 1/b_i tells it whether one agent's S - 1/b_i would cancel
/// (alloc::pr_rest_cancels), a round it leaves to the reference path.
///
/// Validation is by mask, not by throw: the kernel reports "every lane
/// finite and positive" and the round engine re-runs the shared input check
/// (model::require_valid_round) to name the offending agent.  NaNs fail the
/// ordered compares and are flagged like non-positive values.

#include <cstddef>
#include <span>

namespace lbmv::alloc::simd {

/// Result of one reciprocal block: the block's partial sums under the fixed
/// tree, plus the validity mask of both input planes.
struct ReciprocalPartial {
  double inverse_sum = 0.0;  ///< partial S      = sum 1/b_i
  double exec_weight = 0.0;  ///< partial W      = sum (e_i * inv_i) * inv_i
  double max_inverse = 0.0;  ///< the block's largest inv_i
  bool inputs_valid = true;  ///< every bid and execution finite and > 0
};

/// inv_out[i] = 1.0 / bids[i] for the whole block (the same IEEE division
/// the scalar kernels perform, so downstream consumers of 1/b_i see the same
/// bits), accumulating the block's partial inverse sum AND the partial
/// execution weight W = sum (e_i * inv_i) * inv_i.  W is what makes the
/// round engine single-reduction: with the PR closed form x_i = inv_i/S * R,
/// the verified latency total factors as L(x, e) = (R/S)^2 * W, so the
/// engine needs no second reduction pass over the planes.  All three spans
/// must have the block's length.
[[nodiscard]] ReciprocalPartial pr_reciprocal_block(
    std::span<const double> bids, std::span<const double> executions,
    std::span<double> inv_out);

}  // namespace lbmv::alloc::simd
