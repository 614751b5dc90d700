#include "lbmv/obs/probes.h"

namespace lbmv::obs {

SimProbes& SimProbes::get() {
  static SimProbes probes = [] {
    Registry& r = Registry::global();
    SimProbes p;
    p.source_jobs = r.counter("lbmv_sim_source_jobs_total");
    return p;
  }();
  return probes;
}

MechProbes& MechProbes::get() {
  static MechProbes probes = [] {
    Registry& r = Registry::global();
    MechProbes p;
    p.rounds = r.counter("lbmv_mech_rounds_total");
    p.linear_pr_rounds = r.counter("lbmv_mech_linear_fast_rounds_total");
    p.allocs_avoided = r.counter("lbmv_mech_allocs_avoided_total");
    p.nonlinear_rounds = r.counter("lbmv_mech_nonlinear_rounds_total");
    p.newton_iters = r.counter("lbmv_mech_newton_iters_total");
    p.audit_evaluations = r.counter("lbmv_mech_audit_evaluations_total");
    p.loo_batches = r.counter("lbmv_mech_leave_one_out_batches_total");
    p.round_payment = r.histogram("lbmv_mech_round_payment");
    p.round_bonus = r.histogram("lbmv_mech_round_bonus");
    p.loo_batch_size = r.histogram("lbmv_mech_leave_one_out_batch_size");
    return p;
  }();
  return probes;
}

CoreProbes& CoreProbes::get() {
  static CoreProbes probes = [] {
    Registry& r = Registry::global();
    CoreProbes p;
    p.delta_rounds = r.counter("lbmv_core_delta_rounds_total");
    p.dirty_agents = r.histogram("lbmv_core_delta_dirty_agents");
    return p;
  }();
  return probes;
}

PoolProbes& PoolProbes::get() {
  static PoolProbes probes = [] {
    Registry& r = Registry::global();
    PoolProbes p;
    p.tasks = r.counter("lbmv_pool_tasks_total");
    p.parallel_fors = r.counter("lbmv_pool_parallel_for_total");
    p.chunk_size = r.histogram("lbmv_pool_chunk_size");
    return p;
  }();
  return probes;
}

ProtocolProbes& ProtocolProbes::get() {
  static ProtocolProbes probes = [] {
    Registry& r = Registry::global();
    ProtocolProbes p;
    p.rounds = r.counter("lbmv_protocol_rounds_total");
    p.replications = r.counter("lbmv_protocol_replications_total");
    p.estimate_fallbacks = r.counter("lbmv_protocol_estimate_fallbacks_total");
    return p;
  }();
  return probes;
}

StrategyProbes& StrategyProbes::get() {
  static StrategyProbes probes = [] {
    Registry& r = Registry::global();
    StrategyProbes p;
    p.deviation_evals = r.counter("lbmv_strategy_deviation_evals_total");
    p.mechanism_runs_avoided =
        r.counter("lbmv_strategy_mechanism_runs_avoided_total");
    p.commits = r.counter("lbmv_strategy_commits_total");
    p.grid_evals = r.counter("lbmv_strategy_grid_evals_total");
    p.grid_lanes_wasted = r.counter("lbmv_strategy_grid_lanes_wasted_total");
    p.round_seconds = r.histogram("lbmv_strategy_best_response_round_seconds");
    return p;
  }();
  return probes;
}

}  // namespace lbmv::obs
