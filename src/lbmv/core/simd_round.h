#pragma once

/// \file simd_round.h
/// The vectorized linear round engine (DESIGN.md §12).
///
/// One round on the paper's configuration — linear family, PR allocator —
/// is two data-parallel passes over contiguous agent planes:
///
///   P1  inv[i] = 1/b_i, S = sum inv, W = sum (e_i inv_i) inv_i
///       (+ finite-and-positive input validation by mask)
///   P2  x_i = inv[i] * (R/S) (the only plane written) and the linear
///       family's terms in-register, priced by rule_terms.h's rule_terms
///       and stored by its publish_block, the block loop the nonlinear
///       engines share
///
/// Two passes suffice because the totals factor out of the per-agent sums:
/// L(x, b) = R^2/S and L(x, e) = (R/S)^2 W.  Both passes walk the agent
/// axis serially in fixed kReductionBlock-agent blocks, and P1 folds the
/// blocks' partial sums into S and W in block order, so LBMV_SIMD=OFF's
/// emulated backend gives the same bits as AVX2.  Versus
/// Mechanism::run_reference_into the reassociated S, the closed-form totals
/// and the one precomputed share keep outcomes within O(n·eps) relative
/// (tests/test_simd_kernels.cpp); the leave-one-out and Archer–Tardos tail
/// terms match it bit-for-bit at equal S.

#include <cstddef>
#include <span>

#include "lbmv/core/mechanism.h"

namespace lbmv::core {

class RoundWorkspace;  // batch.h

/// Build stamp for benchmark environment records.  Only the vectorized
/// engines remain, so this is a constant.
enum class KernelBackend {
  kVectorized,  ///< the blocked 4-lane engines (this header, family_round.h)
};
[[nodiscard]] constexpr KernelBackend kernel_backend() {
  return KernelBackend::kVectorized;
}

/// Tag of the vector backend compiled into this binary ("avx2" or
/// "scalar-4lane").
[[nodiscard]] const char* vector_backend_name();

/// Agents per block of the fixed reduction grid.  A multiple of 8 (the
/// kernels' unrolled step, so only the final block ever has a vector tail)
/// sized so one block's working set — the input/reciprocal/rate planes plus
/// its outcome records — stays within L2.  Fixed: S and W are the blocks'
/// partial sums added in block order, so the grid decides every output bit.
inline constexpr std::size_t kReductionBlock = 4096;

/// Run one vectorized round end to end: validation, PR allocation, latency
/// totals, payments, utilities — the full contract of Mechanism::run_into
/// on linear-family / PR-allocator rounds — and return true.  Every
/// agent's rest S_{-i} is S - 1/b_i.  Invalid inputs throw
/// model::require_valid_round's diagnostic.  Returns false, leaving \p
/// out's contents unspecified, when one agent's S - 1/b_i would cancel
/// (alloc::pr_rest_cancels) or a latency total or a published value would
/// be non-finite; run_into then hands the round to the reference path,
/// which sums that agent's rest (alloc::pr_rest_at) and returns its own
/// result or raises its canonical diagnostic.
[[nodiscard]] bool run_linear_pr_vectorized(
    PaymentRule rule, double arrival_rate, std::span<const double> bids,
    std::span<const double> executions, MechanismOutcome& out,
    RoundWorkspace& ws);

}  // namespace lbmv::core
