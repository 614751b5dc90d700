#pragma once

/// \file probes.h
/// Pre-registered metric families for the built-in instrumentation.
///
/// Each bundle groups the handles one subsystem records into, resolved
/// once from `Registry::global()` behind a function-local static, so
/// probe sites pay a handle copy at component construction and a relaxed
/// atomic on the hot path — never a name lookup.
///
/// Families (all exported by `lbmv obs`, documented in DESIGN.md §9):
///
///   counters
///     lbmv_sim_events_total                   events dispatched
///     lbmv_sim_events_kind_total{kind=...}    per EventKind
///     lbmv_sim_window_refills_total           calendar window refills
///     lbmv_sim_source_jobs_total              jobs emitted by JobSource
///     lbmv_server_arrivals_total{server=...}  per-server submissions
///     lbmv_server_completions_total{server=...}
///     lbmv_mech_rounds_total                  mechanism rounds (run/run_into)
///     lbmv_mech_batch_runs_total              Mechanism::run_batch calls
///     lbmv_mech_linear_fast_rounds_total      rounds on the fused linear path
///     lbmv_mech_allocs_avoided_total          heap allocations the fused
///                                             path skipped vs the scalar one
///     lbmv_mech_simd_rounds_total             rounds on the vectorized
///                                             engine (DESIGN.md §12)
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
///     lbmv_core_delta_rounds_total            delta batches absorbed by the
///                                             cross-round DeltaRoundEngine
///                                             (DESIGN.md §15)
///     lbmv_core_full_rebuilds_total           exact aggregate rebuilds
///                                             (initial build + drift cadence)
///     lbmv_pool_tasks_total                   thread-pool tasks executed
///     lbmv_pool_parallel_for_total            parallel_for invocations
///     lbmv_protocol_rounds_total              VerifiedProtocol rounds
///     lbmv_protocol_replications_total        completed replications
///     lbmv_protocol_estimate_fallbacks_total  rate-estimate fallbacks
///     lbmv_strategy_deviation_evals_total     DeviationEvaluator queries
///     lbmv_strategy_mechanism_runs_avoided_total  fast-path queries that
///                                             skipped a full Mechanism::run
///     lbmv_strategy_commits_total             committed deviations
///     lbmv_strategy_grid_evals_total          candidate bids swept by
///                                             strategy::GridEvaluator
///     lbmv_strategy_grid_lanes_wasted_total   padded tail lanes the 4-lane
///                                             grid kernels evaluated
///
///   gauges (additive)
///     lbmv_sim_queue_depth        pending events in the calendar queue
///     lbmv_sim_closure_slab_in_use  pooled closures currently live
///
///   histograms
///     lbmv_sim_window_fill_events   events replayed per window refill
///     lbmv_server_waiting_seconds{server=...}  completed-job waiting time
///     lbmv_mech_round_payment       per-agent payment per round
///     lbmv_mech_round_bonus         per-agent bonus per round
///     lbmv_mech_shard_count         pool tasks per sharded round
///     lbmv_mech_batch_size          profiles per run_batch call
///     lbmv_core_delta_dirty_agents  dirty agents (k) per absorbed delta batch
///     lbmv_mech_leave_one_out_batch_size
///     lbmv_pool_chunk_size          parallel_for grain sizes
///     lbmv_strategy_best_response_round_seconds  wall time per dynamics round
///     lbmv_strategy_grid_round_seconds  wall time per candidate-grid sweep

#include <cstdint>

#include "lbmv/obs/metrics.h"

namespace lbmv::obs {

/// Simulation core (engine + job source).
struct SimProbes {
  Counter events_total;
  Counter events_by_kind[5];  ///< indexed by sim::EventKind value
  Counter window_refills;
  Counter source_jobs;
  Gauge queue_depth;
  Gauge slab_in_use;
  Histogram window_fill;

  static SimProbes& get();
};

/// Mechanism, audit, and leave-one-out payment engine.
struct MechProbes {
  Counter rounds;
  Counter batch_runs;
  Counter linear_fast_rounds;
  Counter allocs_avoided;
  Counter simd_rounds;
  Counter sharded_rounds;
  Counter nonlinear_rounds;
  Counter newton_iters;
  Counter audit_evaluations;
  Counter loo_batches;
  Histogram round_payment;
  Histogram round_bonus;
  Histogram batch_size;
  Histogram loo_batch_size;
  Histogram shard_count;

  static MechProbes& get();
};

/// core::DeltaRoundEngine (cross-round sparse recomputation).
struct CoreProbes {
  Counter delta_rounds;    ///< delta batches absorbed in O(k)
  Counter full_rebuilds;   ///< exact aggregate re-sums (drift cadence)
  Histogram dirty_agents;  ///< k per absorbed batch

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

/// Strategy layer: DeviationEvaluator, GridEvaluator and best-response
/// dynamics.
struct StrategyProbes {
  Counter deviation_evals;
  Counter mechanism_runs_avoided;
  Counter commits;
  Counter grid_evals;
  Counter grid_lanes_wasted;
  Histogram round_seconds;
  Histogram grid_round_seconds;

  static StrategyProbes& get();
};

}  // namespace lbmv::obs
