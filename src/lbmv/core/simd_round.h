#pragma once

/// \file simd_round.h
/// The vectorized, agent-sharded round engine (DESIGN.md §12).
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
/// L(x, b) = R^2/S and L(x, e) = (R/S)^2 W.  The agent axis is cut into
/// fixed kShardBlock-agent blocks whose partial sums the calling thread
/// reduces in block order, so the outcome is bit-identical for any shard
/// and thread count, and LBMV_SIMD=OFF's emulated backend gives the same
/// bits as AVX2.  Versus Mechanism::run_reference_into the reassociated S,
/// the closed-form totals and the one precomputed share keep outcomes
/// within O(n·eps) relative (tests/test_simd_kernels.cpp); the
/// leave-one-out and Archer–Tardos tail terms match it bit-for-bit at
/// equal S.

#include <cstddef>
#include <span>

#include "lbmv/core/mechanism.h"

namespace lbmv::core {

class RoundWorkspace;    // batch.h
struct RoundOptions;     // batch.h
struct FusedRoundStats;  // batch.h

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

/// Agents per shard block.  A multiple of 8 (the kernels' unrolled step, so
/// only the final block ever has a vector tail) sized so one block's working
/// set — the input/reciprocal/rate planes plus its outcome records — stays
/// within L2.  Fixed: the block grid must not depend on thread or shard
/// count, or determinism dies.
inline constexpr std::size_t kShardBlock = 4096;

/// Rounds below this many agents never auto-shard: the fan-out's task
/// latency would exceed the O(n) math it parallelizes.
inline constexpr std::size_t kAutoShardMinAgents = 1u << 16;

/// Run one vectorized round end to end: validation, PR allocation, latency
/// totals, payments, utilities — the full contract of Mechanism::run_into
/// on linear-family / PR-allocator rounds — and return true.  Invalid
/// inputs throw model::require_valid_round's diagnostic, and a failed
/// leave-one-out cancellation guard throws pr_leave_one_out_from_sum's,
/// naming the agent.  Returns false, leaving \p out's contents unspecified,
/// only when a latency total or a published value would be non-finite;
/// run_into then hands the round to the reference path, which returns its
/// own result or raises its canonical diagnostic.  \p options controls the
/// fan-out (see RoundOptions); \p stats receives the shard count.
[[nodiscard]] bool run_linear_pr_vectorized(
    PaymentRule rule, double arrival_rate, std::span<const double> bids,
    std::span<const double> executions, MechanismOutcome& out,
    RoundWorkspace& ws, const RoundOptions& options, FusedRoundStats& stats);

}  // namespace lbmv::core
