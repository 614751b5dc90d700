#pragma once

/// \file pr_simd.h
/// Vectorized block kernels for the PR closed forms (DESIGN.md §12).
///
/// Each function processes one contiguous block of agents with the 4-lane
/// vectors of util/simd.h and a *fixed* in-block reduction tree: two vector
/// accumulators over 8-agent steps, one leftover full vector into the first
/// accumulator, the fixed horizontal sum (l0+l1)+(l2+l3) of their lane-wise
/// total, then any <4-agent tail appended scalar in index order.  Because
/// the tree depends only on the block's length — never on thread or shard
/// count — the sharded round engine (core/simd_round.h) gets bit-identical
/// results for any fan-out by cutting agents into fixed-size blocks and
/// reducing the returned partials in block order.
///
/// Validation is by mask, not by throw: kernels report "every lane finite
/// and positive" / "every denominator safe" flags and the caller decides
/// on failure — the round engine re-runs the shared input check
/// (model::require_valid_round) or the leave-one-out guard to name the
/// offending agent, or hands a non-finite round to the reference path.
/// NaNs fail the ordered compares and are flagged like non-positive values.

#include <cstddef>
#include <span>

namespace lbmv::alloc::simd {

/// Result of one reciprocal block: the block's partial sums under the fixed
/// tree, plus the validity mask of both input planes.
struct ReciprocalPartial {
  double inverse_sum = 0.0;  ///< partial S      = sum 1/b_i
  double exec_weight = 0.0;  ///< partial W      = sum (e_i * inv_i) * inv_i
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

/// loo_out[i] = R^2 / (S - inv[i]) for the block.  Returns false when any
/// denominator fails the cancellation guard (denom > min_gap, the scalar
/// kernel's test); the caller then re-runs pr_leave_one_out_from_sum to
/// throw the canonical diagnostic.  Elementwise this is the scalar formula
/// on the same operands, so the plane matches the scalar kernel bit-for-bit
/// at equal S.
[[nodiscard]] bool pr_leave_one_out_block(std::span<const double> inv,
                                          double inverse_sum,
                                          double arrival_rate, double min_gap,
                                          std::span<double> loo_out);

/// Archer–Tardos payment tail for the block:
///
///   s_i        = S - inv[i]
///   bonus_i    = R^2 / (s_i * (1 + b_i * s_i))
///
/// (the closed-form integral of archer_tardos_tail_integral, same operand
/// order).  Returns false when any s_i fails the strict positivity the
/// scalar kernel requires; the caller re-runs the scalar loop to throw its
/// diagnostic.
[[nodiscard]] bool archer_tardos_tail_block(std::span<const double> bids,
                                            std::span<const double> inv,
                                            double inverse_sum,
                                            double arrival_rate,
                                            std::span<double> bonus_out);

}  // namespace lbmv::alloc::simd
