#pragma once

/// \file batch.h
/// The reusable round workspace and the round engines' family classes.
///
/// Every experiment in the paper — Table 1/2 rounds, the Fig 3–5 deviation
/// sweeps, the frugality grids — reduces to evaluating the mechanism over
/// many bid profiles, one Mechanism::run_into per profile.  The scalar path
/// pays per-round plumbing (fresh vectors, one heap-allocated
/// LatencyFunction per agent per round) that dwarfs the O(n) closed-form
/// math; a RoundWorkspace holds every scratch plane one round needs (the
/// fused engines' planes, leave-one-out optima, the reference path's
/// latency arena), reused across rounds so the steady state allocates
/// nothing on the fused engines (DESIGN.md §11).

#include <cstddef>
#include <memory>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"

namespace lbmv::util {
class ThreadPool;
}  // namespace lbmv::util

namespace lbmv::core {

/// The latency families the round engine knows fused kernels for.  The
/// reference path (Mechanism::run_reference_into) stays the semantic
/// oracle; a fused engine may only engage when the family AND the
/// allocator match (e.g. kMm1 with an exact MM1Allocator), so
/// classification alone never changes behaviour.
enum class FamilyKind {
  kLinear,    ///< l(x) = theta x        — PR closed form (DESIGN.md §11/§12)
  kMm1,       ///< l(x) = 1/(mu - x)     — square-root closed form (§14)
  kWorkload,  ///< l(x) = theta x(1+gx)  — damped-free monotone Newton (§14)
  kGeneric,   ///< anything else: virtual-dispatch arena
};

/// Classify by dynamic type (mirroring the audit fast-path gates).
[[nodiscard]] FamilyKind classify_family(const model::LatencyFamily& family);

/// Reusable scratch for mechanism rounds.  One workspace per thread (or per
/// long-lived caller) amortises every allocation a round needs; after the
/// first round at a given n, run_into on the fused engines touches the heap
/// zero times.  run_into never touches scratch_profile/scratch_outcome, so
/// callers that sweep deviations may hold their working profile and outcome
/// in the same workspace they pass back in.
class RoundWorkspace {
 public:
  RoundWorkspace() = default;
  RoundWorkspace(const RoundWorkspace&) = delete;
  RoundWorkspace& operator=(const RoundWorkspace&) = delete;
  RoundWorkspace(RoundWorkspace&&) = default;
  RoundWorkspace& operator=(RoundWorkspace&&) = default;

  /// One workspace per thread, created on first use: what run() and
  /// run_deviated round on, so repeated calls stay allocation-free per
  /// thread.
  static RoundWorkspace& thread_local_instance();

  // ---- scratch planes (sized by the engine, reused across rounds) --------
  std::vector<double> leave_one_out;  ///< L_{-i} per agent

  // ---- vectorized-engine planes (simd_round.cpp; reused across rounds) ---
  std::vector<double> inv_bids;        ///< 1/b_i
  std::vector<double> block_partials;  ///< per-block partials: S, sum (e/b^2)
  std::vector<unsigned char> block_ok; ///< per-block validation masks

  // ---- nonlinear-family planes (family_round.cpp; reused across rounds) --
  alloc::Mm1Planes mm1_planes;         ///< M/M/1 sorted prefix
  std::vector<double> inv_execs;       ///< 1/e_i (M/M/1 verified rates)
  std::vector<double> family_scratch;  ///< workload fallback rest sets

  /// Arena for the reference path: the function objects are rebuilt per
  /// round via LatencyFamily::make, but the owning planes persist so the
  /// per-round vector churn disappears.  The fused engines never touch
  /// these.
  std::vector<std::unique_ptr<model::LatencyFunction>> exec_fns;
  std::vector<std::unique_ptr<model::LatencyFunction>> bid_fns;

  // ---- caller-owned scratch (never touched by run_into) ------------------
  model::BidProfile scratch_profile;
  MechanismOutcome scratch_outcome;
};

/// Fan-out controls for one round's agent axis (the vectorized engine,
/// simd_round.h).  Results never depend on these — the fixed block grid
/// makes every shard/thread count bit-identical — so they tune wall-clock
/// only.  shards == 0 picks automatically: serial below
/// kAutoShardMinAgents or on a single-thread pool, one task per pool
/// thread-quantum above.  shards == 1 forces the serial block loop and
/// shards > 1 requests that many tasks (capped at the block count); tests
/// and benches set them.  A round run from a worker of the pool it shards
/// on runs its blocks inline (ThreadPool::parallel_for runs nested calls on
/// the calling worker), so a round inside a parallel_for cannot deadlock.
struct RoundOptions {
  std::size_t shards = 0;            ///< 0 auto, 1 serial, k explicit tasks
  util::ThreadPool* pool = nullptr;  ///< null: the process-global pool
};

/// What a fused engine did, for run_into's obs probes.
struct FusedRoundStats {
  std::size_t shards = 1;        ///< tasks the linear engine's blocks ran as
  std::size_t newton_iters = 0;  ///< O(n) KKT sweeps (workload engine)
};

}  // namespace lbmv::core
