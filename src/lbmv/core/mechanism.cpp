#include "lbmv/core/mechanism.h"

#include <cmath>
#include <cstdint>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/family_round.h"
#include "lbmv/core/invariants.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"
#include "lbmv/util/thread_pool.h"

namespace lbmv::core {

namespace {

/// Per-agent payment and bonus histograms: one batched record per family
/// (one shard lookup each), the same values in the same order as a
/// record() per agent.
void record_round_histograms(obs::MechProbes& probes,
                             const MechanismOutcome& out) {
  const auto& agents = out.agents;
  probes.round_payment.record_each(
      agents.size(), [&](std::size_t i) { return agents[i].payment; });
  probes.round_bonus.record_each(
      agents.size(), [&](std::size_t i) { return agents[i].bonus; });
}

}  // namespace

double MechanismOutcome::total_payment() const {
  double s = 0.0;
  for (const auto& a : agents) s += a.payment;
  return s;
}

double MechanismOutcome::total_valuation_magnitude() const {
  double s = 0.0;
  for (const auto& a : agents) s += std::fabs(a.valuation);
  return s;
}

Mechanism::Mechanism(std::shared_ptr<const alloc::Allocator> allocator)
    : allocator_(std::move(allocator)) {
  LBMV_REQUIRE(allocator_ != nullptr, "mechanism requires an allocator");
}

void Mechanism::run_into(const model::LatencyFamily& family,
                         double arrival_rate, std::span<const double> bids,
                         std::span<const double> executions,
                         MechanismOutcome& out, RoundWorkspace& ws) const {
  run_into(family, arrival_rate, bids, executions, out, ws, RoundOptions{});
}

void Mechanism::run_into(const model::LatencyFamily& family,
                         double arrival_rate, std::span<const double> bids,
                         std::span<const double> executions,
                         MechanismOutcome& out, RoundWorkspace& ws,
                         const RoundOptions& options) const {
  const std::size_t n = bids.size();
  LBMV_REQUIRE(n >= 2, "mechanisms require at least two agents");
  LBMV_REQUIRE(executions.size() == n, "execution vector size mismatch");

  // Classify the round once; payment rules read the flags off the workspace
  // instead of repeating the dynamic_casts per agent.
  ws.linear_fast =
      dynamic_cast<const model::LinearFamily*>(&family) != nullptr;
  ws.pr_closed_form = false;
  ws.inverse_sum = 0.0;

  // The vectorized engine fuses the entire round — validation, PR solve,
  // cost planes, payments — when the round is the paper's configuration
  // (linear family + PR allocator), the mechanism advertises a vectorized
  // payment rule, and the runtime backend selector says vectorized (the
  // default iff LBMV_SIMD was compiled in).  It raises the same diagnostics
  // as the scalar path on invalid input; results agree with the scalar
  // kernels to the DESIGN.md §12 error bound.
  const VectorRule rule = vector_rule();
  if (ws.linear_fast && rule != VectorRule::kNone &&
      kernel_backend() == KernelBackend::kVectorized &&
      dynamic_cast<const alloc::PRAllocator*>(allocator_.get()) != nullptr) {
    const SimdRoundStats stats = run_linear_pr_vectorized(
        rule, arrival_rate, bids, executions, out, ws, options);
    if (obs::enabled()) {
      obs::MechProbes& probes = obs::MechProbes::get();
      probes.rounds.inc();
      probes.linear_fast_rounds.inc();
      probes.allocs_avoided.inc(3 * static_cast<std::uint64_t>(n));
      probes.simd_rounds.inc();
      if (stats.shards > 1) {
        probes.sharded_rounds.inc();
        probes.shard_count.record(static_cast<double>(stats.shards));
      }
      record_round_histograms(probes, out);
      // The vectorized engine only engages on PR-on-linear rounds, so the
      // full monitor set (feasibility, decomposition, participation, KKT)
      // is armed.
      check_round_invariants(
          bids, executions, arrival_rate, out,
          RoundInvariantOptions{
              /*linear_pr=*/true,
              /*participation_guaranteed=*/
              guarantees_voluntary_participation()});
    }
    return;
  }

  // Nonlinear fused dispatch (family_round.h, DESIGN.md §14): the M/M/1 and
  // workload families get their own fused engines when paired with their
  // exact allocators.  The Archer–Tardos tail integral is linear-family-
  // specific, so that rule stays on the generic path.  The M/M/1 engine
  // serves idle-server rounds too; it declines only a round whose
  // allocation overloads some computer's execution rate, by returning
  // false, and the generic path below then raises the canonical
  // diagnostic.
  if (!ws.linear_fast && rule != VectorRule::kNone &&
      rule != VectorRule::kArcherTardos &&
      kernel_backend() == KernelBackend::kVectorized) {
    const FamilyKind kind = classify_family(family);
    if (kind == FamilyKind::kMm1 &&
        dynamic_cast<const alloc::MM1Allocator*>(allocator_.get()) !=
            nullptr) {
      if (run_mm1_vectorized(rule, arrival_rate, bids, executions, out, ws)) {
        if (obs::enabled()) {
          obs::MechProbes& probes = obs::MechProbes::get();
          probes.rounds.inc();
          probes.nonlinear_rounds.inc();
          // The generic path would have built 2n latency functions for the
          // totals plus n more in the payment rule's compensation terms.
          probes.allocs_avoided.inc(3 * static_cast<std::uint64_t>(n));
          record_round_histograms(probes, out);
          RoundInvariantOptions opts;
          opts.participation_guaranteed =
              guarantees_voluntary_participation();
          opts.mm1_exact = true;
          check_round_invariants(bids, executions, arrival_rate, out, opts);
        }
        return;
      }
    } else if (kind == FamilyKind::kWorkload &&
               dynamic_cast<const alloc::WorkloadAllocator*>(
                   allocator_.get()) != nullptr) {
      const auto& workload =
          static_cast<const model::WorkloadFamily&>(family);
      const FamilyRoundStats stats = run_workload_vectorized(
          workload, rule, arrival_rate, bids, executions, out, ws);
      if (obs::enabled()) {
        obs::MechProbes& probes = obs::MechProbes::get();
        probes.rounds.inc();
        probes.nonlinear_rounds.inc();
        probes.newton_iters.inc(stats.newton_iters);
        probes.allocs_avoided.inc(3 * static_cast<std::uint64_t>(n));
        record_round_histograms(probes, out);
        RoundInvariantOptions opts;
        opts.participation_guaranteed = guarantees_voluntary_participation();
        opts.workload_exact = true;
        opts.workload_gamma = workload.gamma();
        check_round_invariants(bids, executions, arrival_rate, out, opts);
      }
      return;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    LBMV_REQUIRE(bids[i] > 0.0, "bids must be positive");
    LBMV_REQUIRE(executions[i] > 0.0, "execution values must be positive");
  }
  LBMV_REQUIRE(arrival_rate > 0.0, "arrival rate must be positive");

  // Recycle the previous outcome's rate plane instead of allocating a fresh
  // vector: after the first round at this n, resize() is a no-op.
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  if (ws.linear_fast &&
      dynamic_cast<const alloc::PRAllocator*>(allocator_.get()) != nullptr) {
    // Fused PR solve: allocation, S, and L* from one pass over the bids.
    const alloc::PrSolve solve =
        alloc::pr_allocate_into(bids, arrival_rate, rates);
    ws.pr_closed_form = true;
    ws.inverse_sum = solve.inverse_sum;
  } else {
    allocator_->allocate_into(family, bids, arrival_rate, rates);
  }
  out.allocation = model::Allocation(std::move(rates));
  const std::span<const double> x = out.allocation.rates();

  out.agents.resize(n);
  if (ws.linear_fast) {
    // Fused linear fast path: every latency quantity is a closed form in
    // t * x_i^2, so the scalar path's 2n LatencyFamily::make heap
    // allocations (plus their virtual cost() dispatches) disappear.  Each
    // cost term is (t*x)*x — bit-identical to the generic path's
    // x * latency(x) = x*(t*x) — and both totals accumulate in index order,
    // so run_into agrees with the historical run() to the last bit.
    double actual = 0.0;
    double reported = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = x[i];
      const double cost = executions[i] * xi * xi;
      actual += cost;
      reported += bids[i] * xi * xi;
      auto& agent = out.agents[i];
      agent.allocation = xi;
      agent.valuation = -cost;
    }
    out.actual_latency = actual;
    out.reported_latency = reported;
  } else {
    // Generic families: the function objects themselves must come from
    // family.make (unavoidable heap traffic), but the owning planes live in
    // the workspace so the per-round vector churn is gone.  The arena keeps
    // its high-water size — shrinking to exactly n would destroy the tail's
    // slots only to default-construct them again on the next larger round —
    // and the round uses the first n entries.
    if (ws.exec_fns.size() < n) {
      ws.exec_fns.resize(n);
      ws.bid_fns.resize(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
      ws.exec_fns[i] = family.make(executions[i]);
      ws.bid_fns[i] = family.make(bids[i]);
    }
    // An M/M/1 load past a computer's execution rate would fail inside
    // total_latency without naming it; raise the typed error naming the
    // first such computer instead (same check, same index order).
    if (classify_family(family) == FamilyKind::kMm1) {
      for (std::size_t i = 0; i < n; ++i) {
        const double mue = 1.0 / executions[i];
        if (x[i] != 0.0 && !(x[i] >= 0.0 && x[i] < mue)) {
          alloc::throw_mm1_domain_error(i, x[i], mue);
        }
      }
    }
    out.actual_latency = model::total_latency(
        out.allocation, std::span(ws.exec_fns).first(n));
    out.reported_latency = model::total_latency(
        out.allocation, std::span(ws.bid_fns).first(n));
    for (std::size_t i = 0; i < n; ++i) {
      auto& agent = out.agents[i];
      agent.allocation = x[i];
      const double cost =
          (x[i] == 0.0) ? 0.0 : ws.exec_fns[i]->cost(x[i]);
      agent.valuation = -cost;
    }
  }

  fill_payments(family, arrival_rate, bids, executions, out.allocation,
                out.actual_latency, out.reported_latency, out.agents, ws);

  for (auto& agent : out.agents) {
    agent.utility = agent.payment + agent.valuation;
  }
  if (obs::enabled()) {
    obs::MechProbes& probes = obs::MechProbes::get();
    probes.rounds.inc();
    if (ws.linear_fast) {
      probes.linear_fast_rounds.inc();
      // The scalar path would have built 2n latency functions here plus n
      // more in the payment rule's compensation terms.
      probes.allocs_avoided.inc(3 * static_cast<std::uint64_t>(n));
    }
    record_round_histograms(probes, out);
    RoundInvariantOptions opts;
    opts.linear_pr = ws.linear_fast && ws.pr_closed_form;
    opts.participation_guaranteed = guarantees_voluntary_participation();
    // Scalar-backend (or fused-declined) rounds on the exact nonlinear
    // allocators still arm the family-specific monitors: the allocation is
    // exactly optimal there too, only the engine differs.
    if (!ws.linear_fast && rule != VectorRule::kNone &&
        rule != VectorRule::kArcherTardos) {
      const FamilyKind kind = classify_family(family);
      opts.mm1_exact = kind == FamilyKind::kMm1 &&
                       dynamic_cast<const alloc::MM1Allocator*>(
                           allocator_.get()) != nullptr;
      if (kind == FamilyKind::kWorkload &&
          dynamic_cast<const alloc::WorkloadAllocator*>(allocator_.get()) !=
              nullptr) {
        opts.workload_exact = true;
        opts.workload_gamma =
            static_cast<const model::WorkloadFamily&>(family).gamma();
      }
    }
    check_round_invariants(bids, executions, arrival_rate, out, opts);
  }
}

void Mechanism::run_into(const model::LatencyFamily& family,
                         double arrival_rate,
                         const model::BidProfile& profile,
                         MechanismOutcome& out, RoundWorkspace& ws) const {
  profile.validate(profile.size());
  run_into(family, arrival_rate, profile.bids, profile.executions, out, ws);
}

void Mechanism::run_into(const model::SystemConfig& config,
                         const model::BidProfile& profile,
                         MechanismOutcome& out, RoundWorkspace& ws) const {
  run_into(config.family(), config.arrival_rate(), profile, out, ws);
}

MechanismOutcome Mechanism::run(const model::LatencyFamily& family,
                                double arrival_rate,
                                const model::BidProfile& profile) const {
  MechanismOutcome outcome;
  run_into(family, arrival_rate, profile, outcome,
           RoundWorkspace::thread_local_instance());
  return outcome;
}

MechanismOutcome Mechanism::run(const model::SystemConfig& config,
                                const model::BidProfile& profile) const {
  return run(config.family(), config.arrival_rate(), profile);
}

void Mechanism::run_batch(const model::LatencyFamily& family,
                          double arrival_rate, const ProfileBatch& batch,
                          BatchOutcomes& out,
                          const BatchRunOptions& options) const {
  const std::size_t count = batch.size();
  out.outcomes.resize(count);
  if (obs::enabled()) {
    obs::MechProbes& probes = obs::MechProbes::get();
    probes.batch_runs.inc();
    probes.batch_size.record(static_cast<double>(count));
  }
  if (count == 0) return;
  // Workers force serial rounds: a round sharding its agent axis over the
  // same pool its profile fan-out runs on would deadlock (parallel_for
  // callers block without draining the queue), and the fixed block grid
  // makes serial rounds bit-identical to sharded ones anyway.
  constexpr RoundOptions kSerialRound{/*shards=*/1, /*pool=*/nullptr};
  const auto body = [&](std::size_t b) {
    run_into(family, arrival_rate, batch.bids(b), batch.executions(b),
             out.outcomes[b], RoundWorkspace::thread_local_instance(),
             kSerialRound);
  };
  if (!options.parallel || count < 2) {
    for (std::size_t b = 0; b < count; ++b) body(b);
    return;
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::ThreadPool::global();
  pool.parallel_for(0, count, body, options.grain);
}

void Mechanism::run_batch(const model::LatencyFamily& family,
                          double arrival_rate, const ProfileBatch& batch,
                          BatchOutcomes& out) const {
  run_batch(family, arrival_rate, batch, out, BatchRunOptions{});
}

void Mechanism::run_batch(const model::SystemConfig& config,
                          const ProfileBatch& batch, BatchOutcomes& out,
                          const BatchRunOptions& options) const {
  run_batch(config.family(), config.arrival_rate(), batch, out, options);
}

void Mechanism::run_batch(const model::SystemConfig& config,
                          const ProfileBatch& batch, BatchOutcomes& out) const {
  run_batch(config.family(), config.arrival_rate(), batch, out,
            BatchRunOptions{});
}

void Mechanism::leave_one_out_into_ws(const model::LatencyFamily& family,
                                      double arrival_rate,
                                      std::span<const double> bids,
                                      RoundWorkspace& ws) const {
  if (ws.pr_closed_form) {
    ws.leave_one_out.resize(bids.size());
    if (obs::enabled()) {
      obs::MechProbes& probes = obs::MechProbes::get();
      probes.loo_batches.inc();
      probes.loo_batch_size.record(static_cast<double>(bids.size()));
    }
    alloc::pr_leave_one_out_from_sum(ws.inverse_sum, bids, arrival_rate,
                                     ws.leave_one_out);
    return;
  }
  allocator_->leave_one_out_into(family, bids, arrival_rate,
                                 ws.leave_one_out);
}

namespace {

/// Pins one agent of a ProfileUtilityContext, turning the profile-wide
/// deviation engine into the single-agent audit interface.  The wrapped
/// context is never committed to, so concurrent queries remain safe.
class ProfileAgentContext final : public AgentUtilityContext {
 public:
  ProfileAgentContext(std::unique_ptr<ProfileUtilityContext> context,
                      std::size_t agent)
      : context_(std::move(context)), agent_(agent) {}

  [[nodiscard]] double utility(double bid, double execution) const override {
    return context_->utility(agent_, bid, execution);
  }

 private:
  std::unique_ptr<ProfileUtilityContext> context_;
  std::size_t agent_;
};

}  // namespace

std::unique_ptr<AgentUtilityContext> Mechanism::make_utility_context(
    const model::LatencyFamily& family, double arrival_rate,
    const model::BidProfile& base, std::size_t agent) const {
  // Any mechanism with a profile-wide fast path gets the per-agent audit
  // fast path for free; without one, audits fall back to run() per
  // deviation.
  auto context = make_profile_context(family, arrival_rate, base);
  if (context == nullptr) return nullptr;
  LBMV_REQUIRE(agent < base.size(), "agent index out of range");
  return std::make_unique<ProfileAgentContext>(std::move(context), agent);
}

std::unique_ptr<ProfileUtilityContext> Mechanism::make_profile_context(
    const model::LatencyFamily&, double, const model::BidProfile&) const {
  return nullptr;  // no closed form; callers fall back to run() per deviation
}

std::shared_ptr<const alloc::Allocator> default_allocator() {
  return std::make_shared<alloc::PRAllocator>();
}

}  // namespace lbmv::core
