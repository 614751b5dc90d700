#pragma once

/// \file simd_round.h
/// The vectorized, agent-sharded round engine (DESIGN.md §12).
///
/// One mechanism round on the paper's configuration — linear family, PR
/// allocator — is two data-parallel passes over contiguous agent planes:
///
///   P1  inv[i] = 1/b_i, S = sum inv, W = sum (e_i inv_i) inv_i
///       (+ finite-and-positive input validation by mask)
///   P2  everything else, fused: x_i = inv[i]/S * R (the only plane
///       written), the rule's cost and extra terms (leave-one-out optimum /
///       Archer–Tardos tail) in-register, and the transposed vector publish
///       into MechanismOutcome::agents (util::simd::store_records6)
///
/// Two passes suffice because the PR closed form factors both latency
/// totals out of the per-agent sums — L(x,b) = R^2/S and L(x,e) = (R/S)^2 W
/// — so P2 already knows every total it publishes against.
///
/// run_linear_pr_vectorized executes them with the 4-lane kernels of
/// alloc/pr_simd.h, cutting the agent axis into fixed kShardBlock-agent
/// blocks.  Blocks write disjoint plane slices and per-block partial sums
/// into an indexed array; the calling thread reduces the partials in block
/// order after each pass.  Because the block grid and every in-block
/// reduction tree are independent of the fan-out, the outcome is
/// bit-identical for ANY shard count and ANY thread count — the serial path
/// is simply the same block loop run inline.  It is the only linear-PR
/// engine in every build: LBMV_SIMD=OFF runs the same kernels on the
/// emulated 4-lane backend, which produces the same bits as AVX2.
///
/// Versus the reference path (Mechanism::run_reference_into), S is
/// reassociated (tree instead of left fold), the latency totals use the
/// factored closed forms instead of the per-agent left folds, and the rate
/// uses one precomputed share, x = inv * (R/S), instead of (inv/S)*R — so
/// outcomes agree to a bounded relative error of O(n·eps), the documented
/// contract tested by tests/test_simd_kernels.cpp.  The per-agent
/// leave-one-out and Archer–Tardos tail terms apply the reference operand
/// order exactly, so they match it bit-for-bit at equal S.

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
