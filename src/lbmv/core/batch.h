#pragma once

/// \file batch.h
/// Structure-of-arrays profile batches and the reusable round workspace.
///
/// Every experiment in the paper — Table 1/2 rounds, the Fig 3–5 deviation
/// sweeps, the frugality grids — reduces to evaluating the mechanism over
/// many bid profiles.  The scalar path pays per-round plumbing (fresh
/// vectors, one heap-allocated LatencyFunction per agent per round) that
/// dwarfs the O(n) closed-form math.  This header provides the batched,
/// allocation-free counterpart (DESIGN.md §11):
///
///   * ProfileBatch   — B profiles of n agents stored as two contiguous
///                      planes (all bids, then all executions), so a batch
///                      round streams cache lines instead of chasing
///                      pointers and a profile is a pair of spans;
///   * RoundWorkspace — every scratch plane one mechanism round needs
///                      (allocation rates, leave-one-out optima, per-agent
///                      costs, the generic-family latency arena), reused
///                      across rounds so the steady state allocates
///                      nothing on the fused linear fast path;
///   * BatchOutcomes  — per-profile MechanismOutcome slots, written
///                      independently by Mechanism::run_batch workers and
///                      therefore deterministic for any thread count.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"

namespace lbmv::util {
class ThreadPool;
}  // namespace lbmv::util

namespace lbmv::core {

/// The latency families the round engine knows fused kernels for.  The
/// generic virtual-dispatch arena stays the semantic reference; a fused
/// path may only engage when the family AND the allocator match (e.g. kMm1
/// with an exact MM1Allocator), so classification alone never changes
/// behaviour.
enum class FamilyKind {
  kLinear,    ///< l(x) = theta x        — PR closed form (DESIGN.md §11/§12)
  kMm1,       ///< l(x) = 1/(mu - x)     — square-root closed form (§14)
  kWorkload,  ///< l(x) = theta x(1+gx)  — damped-free monotone Newton (§14)
  kGeneric,   ///< anything else: virtual-dispatch arena
};

/// Classify by dynamic type (mirroring the audit fast-path gates).
[[nodiscard]] FamilyKind classify_family(const model::LatencyFamily& family);

/// B bid/execution profiles over a fixed set of n agents, stored
/// structure-of-arrays: profile b's bids occupy the contiguous slice
/// [b*n, (b+1)*n) of one plane, its executions the same slice of another.
class ProfileBatch {
 public:
  ProfileBatch() = default;
  /// Empty batch over \p agents agents (>= 2 once profiles are run).
  explicit ProfileBatch(std::size_t agents) : agents_(agents) {}

  /// Drop all profiles and fix the agent count, keeping plane capacity.
  void reset(std::size_t agents) {
    agents_ = agents;
    clear();
  }

  /// Drop all profiles, keeping the agent count and plane capacity.
  void clear() {
    bids_.clear();
    executions_.clear();
  }

  void reserve(std::size_t profiles) {
    bids_.reserve(profiles * agents_);
    executions_.reserve(profiles * agents_);
  }

  [[nodiscard]] std::size_t agents() const { return agents_; }
  /// Number of profiles B.
  [[nodiscard]] std::size_t size() const {
    return agents_ == 0 ? 0 : bids_.size() / agents_;
  }
  [[nodiscard]] bool empty() const { return bids_.empty(); }

  /// Append one profile; its size must match agents().
  void push_back(const model::BidProfile& profile);
  /// Append one profile from raw planes; sizes must match agents().
  void push_back(std::span<const double> bids,
                 std::span<const double> executions);

  [[nodiscard]] std::span<const double> bids(std::size_t b) const {
    return {bids_.data() + b * agents_, agents_};
  }
  [[nodiscard]] std::span<const double> executions(std::size_t b) const {
    return {executions_.data() + b * agents_, agents_};
  }
  [[nodiscard]] std::span<double> mutable_bids(std::size_t b) {
    return {bids_.data() + b * agents_, agents_};
  }
  [[nodiscard]] std::span<double> mutable_executions(std::size_t b) {
    return {executions_.data() + b * agents_, agents_};
  }

  /// The whole bid plane (B*n values, profile-major).
  [[nodiscard]] std::span<const double> bids_plane() const { return bids_; }
  [[nodiscard]] std::span<const double> executions_plane() const {
    return executions_;
  }

  /// Copy profile \p b into \p out, reusing its capacity.
  void extract_into(std::size_t b, model::BidProfile& out) const;

 private:
  std::size_t agents_ = 0;
  std::vector<double> bids_;        ///< B*n, profile-major
  std::vector<double> executions_;  ///< B*n, profile-major
};

/// Reusable scratch for mechanism rounds.  One workspace per thread (or per
/// long-lived caller) amortises every allocation a round needs; after the
/// first round at a given n, run_into on the fused linear fast path touches
/// the heap zero times.
///
/// The flag/sum trio at the top is written by Mechanism::run_into before it
/// calls fill_payments, letting payment rules pick the fused closed form
/// without re-deriving what the round already knows.  run_into never touches
/// scratch_profile/scratch_outcome, so callers that sweep deviations may
/// hold their working profile and outcome in the same workspace they pass
/// back in.
class RoundWorkspace {
 public:
  RoundWorkspace() = default;
  RoundWorkspace(const RoundWorkspace&) = delete;
  RoundWorkspace& operator=(const RoundWorkspace&) = delete;
  RoundWorkspace(RoundWorkspace&&) = default;
  RoundWorkspace& operator=(RoundWorkspace&&) = default;

  /// One workspace per thread, created on first use.  Mechanism::run_batch
  /// workers use this so repeated batches stay allocation-free per thread.
  static RoundWorkspace& thread_local_instance();

  // ---- round state published by Mechanism::run_into ----------------------
  bool linear_fast = false;    ///< family is linear: e_i*x_i^2 everywhere
  bool pr_closed_form = false; ///< linear_fast && PR allocator: S is valid
  double inverse_sum = 0.0;    ///< S = sum_j 1/b_j when pr_closed_form

  // ---- scratch planes (sized by the engine, reused across rounds) --------
  std::vector<double> leave_one_out;  ///< L_{-i} per agent
  std::vector<double> own_cost;       ///< per-agent reported cost (VCG)

  // ---- vectorized-engine planes (simd_round.cpp; reused across rounds) ---
  std::vector<double> inv_bids;        ///< 1/b_i
  std::vector<double> block_partials;  ///< per-block partials: S, sum (e/b^2)
  std::vector<unsigned char> block_ok; ///< per-block validation masks

  // ---- nonlinear-family planes (family_round.cpp; reused across rounds) --
  alloc::Mm1Planes mm1_planes;         ///< M/M/1 sorted prefix
  std::vector<double> inv_execs;       ///< 1/e_i (M/M/1 verified rates)
  std::vector<double> family_scratch;  ///< workload fallback rest sets

  /// Arena for generic (non-linear) families: the function objects are
  /// rebuilt per round via LatencyFamily::make, but the owning planes
  /// persist so the per-round vector churn of the scalar path disappears.
  /// The linear fast path never touches these.
  std::vector<std::unique_ptr<model::LatencyFunction>> exec_fns;
  std::vector<std::unique_ptr<model::LatencyFunction>> bid_fns;

  // ---- caller-owned scratch (never touched by run_into) ------------------
  model::BidProfile scratch_profile;
  MechanismOutcome scratch_outcome;
};

/// Outcome slots for one batch run, reused across calls.  Slot b holds the
/// outcome of profile b; workers write disjoint slots, so the contents are
/// identical for any thread count (deterministic in-order merge).
struct BatchOutcomes {
  std::vector<MechanismOutcome> outcomes;

  [[nodiscard]] std::size_t size() const { return outcomes.size(); }
  [[nodiscard]] const MechanismOutcome& operator[](std::size_t b) const {
    return outcomes[b];
  }
  [[nodiscard]] MechanismOutcome& operator[](std::size_t b) {
    return outcomes[b];
  }
};

/// Fan-out controls for Mechanism::run_batch.
struct BatchRunOptions {
  bool parallel = true;          ///< fan profiles over a thread pool
  util::ThreadPool* pool = nullptr;  ///< null: the process-global pool
  std::size_t grain = 0;         ///< profiles per task; 0 = automatic
};

/// Fan-out controls for one round's agent axis (the vectorized engine,
/// simd_round.h).  Results never depend on these — the fixed block grid
/// makes every shard/thread count bit-identical — so they tune wall-clock
/// only.  shards == 0 picks automatically: serial below
/// kAutoShardMinAgents or on a single-thread pool, one task per pool
/// thread-quantum above.  shards == 1 forces the serial block loop (what
/// run_batch workers use: nested pool fan-out would deadlock the pool).
/// shards > 1 requests that many tasks (capped at the block count).
struct RoundOptions {
  std::size_t shards = 0;            ///< 0 auto, 1 serial, k explicit tasks
  util::ThreadPool* pool = nullptr;  ///< null: the process-global pool
};

}  // namespace lbmv::core
