#pragma once

/// \file probes.h
/// Pre-registered metric families for the built-in instrumentation.
///
/// Each bundle groups the handles one subsystem records into, resolved
/// once from `Registry::global()` behind a function-local static, so
/// probe sites pay a handle copy at component construction and a relaxed
/// load plus store on a single-writer cell on the hot path — never a name
/// lookup and never a locked instruction.  A protocol round publishes its
/// source job count and the per-server families once, after the round
/// (sim/lindley.h).
///
/// Families (all exported by `lbmv obs`, documented in DESIGN.md §9):
///
///   counters
///     lbmv_sim_source_jobs_total              jobs a protocol round's
///                                             source emitted
///     lbmv_server_arrivals_total{server=...}  per-server submissions
///     lbmv_server_completions_total{server=...}
///     lbmv_mech_rounds_total                  mechanism rounds (run/run_into)
///     lbmv_mech_linear_fast_rounds_total      rounds on the fused linear
///                                             (vectorized) engine
///                                             (DESIGN.md §12)
///     lbmv_mech_allocs_avoided_total          heap allocations the fused
///                                             path skipped vs the scalar one
///     lbmv_mech_sharded_rounds_total          vectorized rounds whose agent
///                                             axis fanned over the pool
///     lbmv_mech_nonlinear_rounds_total        rounds on the fused nonlinear
///                                             engines (DESIGN.md §14)
///     lbmv_mech_newton_iters_total            O(n) KKT Newton sweeps of the
///                                             workload engine (full-set
///                                             solve + leave-one-out
///                                             fallbacks, not O(K) steps)
///     lbmv_mech_audit_evaluations_total       audit grid points evaluated
///     lbmv_mech_leave_one_out_batches_total   leave-one-out batch solves
///     lbmv_core_delta_rounds_total            DeltaRoundEngine syncs that
///                                             changed the committed planes
///                                             (DESIGN.md §15)
///     lbmv_pool_tasks_total                   thread-pool tasks executed
///     lbmv_pool_parallel_for_total            parallel_for invocations
///     lbmv_protocol_rounds_total              VerifiedProtocol rounds
///     lbmv_protocol_replications_total        completed replications
///     lbmv_protocol_estimate_fallbacks_total  rate-estimate fallbacks
///     lbmv_strategy_deviation_evals_total     ProfileUtilityContext::utility
///                                             queries (sweeps not included)
///                                             from the audits and the
///                                             strategy layer alike
///     lbmv_strategy_mechanism_runs_avoided_total  of those, queries a closed
///                                             form answered without a run
///     lbmv_strategy_commits_total             committed deviations
///     lbmv_strategy_grid_evals_total          candidate bids swept by the
///                                             contexts' sweeps (audit rows
///                                             included), closed-form or
///                                             reference
///     lbmv_strategy_grid_lanes_wasted_total   padded tail lanes the 4-lane
///                                             context sweeps evaluated
///
///   histograms
///     lbmv_server_waiting_seconds{server=...}  completed-job waiting time
///     lbmv_mech_round_payment       per-agent payment per round
///     lbmv_mech_round_bonus         per-agent bonus per round
///     lbmv_mech_shard_count         pool tasks per sharded round
///     lbmv_core_delta_dirty_agents  changed agents (k) per changing sync
///     lbmv_mech_leave_one_out_batch_size
///     lbmv_pool_chunk_size          parallel_for grain sizes
///     lbmv_strategy_best_response_round_seconds  wall time per dynamics round

#include <cstdint>

#include "lbmv/obs/metrics.h"

namespace lbmv::obs {

/// Protocol-round job execution (sim::simulate_servers).
struct SimProbes {
  Counter source_jobs;

  static SimProbes& get();
};

/// Mechanism, audit, and leave-one-out payment engine.
struct MechProbes {
  Counter rounds;
  Counter linear_pr_rounds;
  Counter allocs_avoided;
  Counter sharded_rounds;
  Counter nonlinear_rounds;
  Counter newton_iters;
  Counter audit_evaluations;
  Counter loo_batches;
  Histogram round_payment;
  Histogram round_bonus;
  Histogram loo_batch_size;
  Histogram shard_count;

  static MechProbes& get();
};

/// core::DeltaRoundEngine (cached cross-round mechanism round).
struct CoreProbes {
  Counter delta_rounds;    ///< syncs that changed the committed planes
  Histogram dirty_agents;  ///< changed agents per such sync

  static CoreProbes& get();
};

/// util::ThreadPool.
struct PoolProbes {
  Counter tasks;
  Counter parallel_fors;
  Histogram chunk_size;

  static PoolProbes& get();
};

/// VerifiedProtocol / ReplicationRunner.
struct ProtocolProbes {
  Counter rounds;
  Counter replications;
  Counter estimate_fallbacks;

  static ProtocolProbes& get();
};

/// Deviation queries, sweeps and commits on every profile context
/// (core::ProfileUtilityContext, whether an audit or the strategy layer
/// asks), and best-response dynamics rounds.
struct StrategyProbes {
  Counter deviation_evals;
  Counter mechanism_runs_avoided;
  Counter commits;
  Counter grid_evals;
  Counter grid_lanes_wasted;
  Histogram round_seconds;

  static StrategyProbes& get();
};

}  // namespace lbmv::obs
