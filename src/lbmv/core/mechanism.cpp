#include "lbmv/core/mechanism.h"

#include <cmath>
#include <cstdint>
#include <string>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/family_context.h"
#include "lbmv/core/family_round.h"
#include "lbmv/core/grid_kernels.h"
#include "lbmv/core/invariants.h"
#include "lbmv/core/profile_context.h"
#include "lbmv/core/rule_terms.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

namespace {

/// The engine that served a round, for its obs probes.
enum class RoundEngine { kLinearPr, kMm1, kWorkload, kReference };

/// A rule's name and properties: the one table Mechanism::name(),
/// uses_verification() and guarantees_voluntary_participation() read.
struct RuleTraits {
  const char* name;
  bool verification;
  bool participation;
};

constexpr RuleTraits rule_traits(PaymentRule rule) {
  switch (rule) {
    case PaymentRule::kCompBonusExecution:
      return {"comp-bonus", true, true};
    case PaymentRule::kCompBonusBid:
      return {"comp-bonus(bid-compensation)", true, true};
    case PaymentRule::kVcg:
      return {"vcg", false, true};
    case PaymentRule::kArcherTardos:
      return {"archer-tardos", false, true};
    case PaymentRule::kNoPayment:
      break;
  }
  return {"no-payment", false, false};
}

/// Agent i's terms (rule_terms.h) on the reference path: its costs off the
/// round's latency-function arenas (0 at x = 0; the verified one already
/// checked finite), L_{-i} off the allocator's leave-one-out plane (filled
/// only for rules that read it), the round's two total latencies, and the
/// linear family's Archer–Tardos tail at s_i = S - 1/b_i.
struct ReferenceTerms {
  const RoundWorkspace& ws;
  const MechanismOutcome& out;
  double arrival_rate;
  double inverse_bid_sum;  ///< S = sum_j 1/b_j (Archer–Tardos rounds only)
  std::size_t i;
  double bid;
  double x;
  double cost;

  double exec_cost() const { return cost; }
  double bid_cost() const { return x == 0.0 ? 0.0 : ws.bid_fns[i]->cost(x); }
  double loo() const { return ws.leave_one_out[i]; }
  double actual() const { return out.actual_latency; }
  double reported() const { return out.reported_latency; }
  double tail_comp() const { return bid * (x * x); }
  double tail() const {
    const double s = inverse_bid_sum - 1.0 / bid;
    require_rest_capacity(s, i);
    return archer_tardos_tail_integral(bid, s, arrival_rate);
  }
};

/// The family \p allocator solves exactly — the pairing a fused engine and
/// the family-specific invariant monitors need — or kGeneric.
FamilyKind exact_family(const model::LatencyFamily& family,
                        const alloc::Allocator& allocator) {
  switch (classify_family(family)) {
    case FamilyKind::kLinear:
      if (dynamic_cast<const alloc::PRAllocator*>(&allocator) != nullptr) {
        return FamilyKind::kLinear;
      }
      break;
    case FamilyKind::kMm1:
      if (dynamic_cast<const alloc::MM1Allocator*>(&allocator) != nullptr) {
        return FamilyKind::kMm1;
      }
      break;
    case FamilyKind::kWorkload:
      if (dynamic_cast<const alloc::WorkloadAllocator*>(&allocator) !=
          nullptr) {
        return FamilyKind::kWorkload;
      }
      break;
    case FamilyKind::kGeneric:
      break;
  }
  return FamilyKind::kGeneric;
}

/// The obs/monitor epilogue of every round, whichever engine served it.
void observe_round(RoundEngine engine, FamilyKind exact,
                   const FusedRoundStats& stats,
                   const model::LatencyFamily& family, double arrival_rate,
                   std::span<const double> bids,
                   std::span<const double> executions,
                   const MechanismOutcome& out,
                   bool participation_guaranteed) {
  obs::MechProbes& probes = obs::MechProbes::get();
  const auto n = static_cast<std::uint64_t>(bids.size());
  probes.rounds.inc();
  if (engine != RoundEngine::kReference) {
    // The reference path would have built 2n latency functions (its
    // execution and bid arenas).
    probes.allocs_avoided.inc(2 * n);
  }
  if (engine == RoundEngine::kLinearPr) {
    probes.linear_pr_rounds.inc();
    if (stats.shards > 1) {
      probes.sharded_rounds.inc();
      probes.shard_count.record(static_cast<double>(stats.shards));
    }
  } else if (engine != RoundEngine::kReference) {
    probes.nonlinear_rounds.inc();
    probes.newton_iters.inc(stats.newton_iters);
  }
  // Per-agent payment and bonus histograms: one batched record per family
  // (one shard lookup each), the same values in the same order as a
  // record() per agent.
  const auto& agents = out.agents;
  probes.round_payment.record_each(
      agents.size(), [&](std::size_t i) { return agents[i].payment; });
  probes.round_bonus.record_each(
      agents.size(), [&](std::size_t i) { return agents[i].bonus; });
  // The family-specific monitors depend only on whether the allocation is
  // the family's exact optimum, not on which engine computed it.
  RoundInvariantOptions opts;
  opts.exact = exact;
  opts.participation_guaranteed = participation_guaranteed;
  if (exact == FamilyKind::kWorkload) {
    opts.workload_gamma =
        static_cast<const model::WorkloadFamily&>(family).gamma();
  }
  check_round_invariants(bids, executions, arrival_rate, out, opts);
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

Mechanism::Mechanism(std::shared_ptr<const alloc::Allocator> allocator,
                     PaymentRule rule)
    : allocator_(std::move(allocator)), rule_(rule) {
  LBMV_REQUIRE(allocator_ != nullptr, "mechanism requires an allocator");
}

std::string Mechanism::name() const { return rule_traits(rule_).name; }

bool Mechanism::uses_verification() const {
  return rule_traits(rule_).verification;
}

bool Mechanism::guarantees_voluntary_participation() const {
  return rule_traits(rule_).participation;
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

  // One engine per exactly-solved family (DESIGN.md §12, §14).  The
  // Archer–Tardos tail integral is linear-family-specific, so that rule
  // only fuses on linear rounds.  An engine returns false when it cannot
  // finish the round with finite results; the reference path then owns the
  // round and its diagnostics.
  const PaymentRule rule = payment_rule();
  const FamilyKind exact = exact_family(family, *allocator_);
  FusedRoundStats stats;
  RoundEngine engine = RoundEngine::kReference;
  if (exact == FamilyKind::kLinear) {
    if (run_linear_pr_vectorized(rule, arrival_rate, bids, executions, out,
                                 ws, options, stats)) {
      engine = RoundEngine::kLinearPr;
    }
  } else if (rule != PaymentRule::kArcherTardos &&
             exact == FamilyKind::kMm1) {
    if (run_mm1_vectorized(rule, arrival_rate, bids, executions, out, ws)) {
      engine = RoundEngine::kMm1;
    }
  } else if (rule != PaymentRule::kArcherTardos &&
             exact == FamilyKind::kWorkload) {
    if (run_workload_vectorized(
            static_cast<const model::WorkloadFamily&>(family), rule,
            arrival_rate, bids, executions, out, ws, stats)) {
      engine = RoundEngine::kWorkload;
    }
  }
  if (engine == RoundEngine::kReference) {
    run_reference_into(family, arrival_rate, bids, executions, out, ws);
    return;
  }
  if (obs::enabled()) {
    observe_round(engine, exact, stats, family, arrival_rate, bids,
                  executions, out, guarantees_voluntary_participation());
  }
}

void Mechanism::run_reference_into(const model::LatencyFamily& family,
                                   double arrival_rate,
                                   std::span<const double> bids,
                                   std::span<const double> executions,
                                   MechanismOutcome& out,
                                   RoundWorkspace& ws) const {
  const std::size_t n = bids.size();
  LBMV_REQUIRE(n >= 2, "mechanisms require at least two agents");
  LBMV_REQUIRE(executions.size() == n, "execution vector size mismatch");
  model::require_valid_round(arrival_rate, bids, executions);

  // Recycle the previous outcome's rate plane instead of allocating a fresh
  // vector: after the first round at this n, resize() is a no-op.
  std::vector<double> rates = std::move(out.allocation).release();
  rates.resize(n);
  allocator_->allocate_into(family, bids, arrival_rate, rates);
  out.allocation = model::Allocation(std::move(rates));
  const std::span<const double> x = out.allocation.rates();

  // The function objects themselves must come from family.make, but the
  // owning planes live in the workspace so the per-round vector churn is
  // gone.  The arena keeps its high-water size — shrinking to exactly n
  // would destroy the tail's slots only to default-construct them again on
  // the next larger round — and the round uses the first n entries.
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
      alloc::require_mm1_capacity(i, x[i], 1.0 / executions[i]);
    }
  }
  out.actual_latency =
      model::total_latency(out.allocation, std::span(ws.exec_fns).first(n));
  out.reported_latency =
      model::total_latency(out.allocation, std::span(ws.bid_fns).first(n));
  out.agents.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& agent = out.agents[i];
    agent.allocation = x[i];
    const double cost = (x[i] == 0.0) ? 0.0 : ws.exec_fns[i]->cost(x[i]);
    // An overflowing cost (e.g. an execution value near DBL_MAX) would
    // publish an infinite valuation and a NaN payment and utility.
    LBMV_REQUIRE(std::isfinite(cost),
                 "verified cost is not finite: computer " + std::to_string(i));
    agent.valuation = -cost;
  }

  const PaymentRule rule = payment_rule();
  if (reads_leave_one_out(rule)) {
    allocator_->leave_one_out_into(family, bids, arrival_rate,
                                   ws.leave_one_out);
  }
  double inverse_bid_sum = 0.0;
  if (rule == PaymentRule::kArcherTardos) {
    LBMV_REQUIRE(dynamic_cast<const model::LinearFamily*>(&family) != nullptr,
                 "the Archer–Tardos closed form is derived for the linear "
                 "family under PR allocation");
    // One index-order pass for S — the PR allocation's own sum — so each
    // s_i = S - 1/b_i replaces an O(n^2) per-agent re-sum.
    for (double b : bids) inverse_bid_sum += 1.0 / b;
  }
  with_payment_rule(rule, [&](auto r) {
    for (std::size_t i = 0; i < n; ++i) {
      AgentOutcome& agent = out.agents[i];
      const RuleRecord<double> rec = rule_terms(
          r, ReferenceTerms{.ws = ws,
                            .out = out,
                            .arrival_rate = arrival_rate,
                            .inverse_bid_sum = inverse_bid_sum,
                            .i = i,
                            .bid = bids[i],
                            .x = x[i],
                            .cost = -agent.valuation});
      agent = {x[i],        rec.compensation, rec.bonus,
               rec.payment, rec.valuation,    rec.utility};
    }
  });
  if (obs::enabled()) {
    observe_round(RoundEngine::kReference, exact_family(family, *allocator_),
                  FusedRoundStats{}, family, arrival_rate, bids, executions,
                  out, guarantees_voluntary_participation());
  }
}

void Mechanism::run_into(const model::LatencyFamily& family,
                         double arrival_rate,
                         const model::BidProfile& profile,
                         MechanismOutcome& out, RoundWorkspace& ws) const {
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

namespace {

/// A sweep's counters (ProfileUtilityContext's class comment).
void note_sweep(const ProfileUtilityContext& context, std::size_t grid_size) {
  if (!obs::enabled()) return;
  obs::StrategyProbes& probes = obs::StrategyProbes::get();
  probes.grid_evals.inc(grid_size);
  if (context.lane_sweeps()) {
    probes.grid_lanes_wasted.inc(grid_lanes_padded(grid_size));
  }
}

}  // namespace

double ProfileUtilityContext::utility(std::size_t agent, double bid,
                                      double execution) const {
  // Checked before counting, so a rejected query counts nothing.
  model::require_valid_deviation(agent, profile_.size(), bid, execution);
  if (obs::enabled()) {
    obs::StrategyProbes& probes = obs::StrategyProbes::get();
    probes.deviation_evals.inc();
    if (closed_form()) probes.mechanism_runs_avoided.inc();
  }
  return deviation_utility(agent, bid, execution);
}

void ProfileUtilityContext::utilities_into(std::size_t agent,
                                           std::span<const double> bids,
                                           double execution,
                                           std::span<double> out) const {
  LBMV_REQUIRE(out.size() >= bids.size(),
               "output span must cover the candidate grid");
  if (!bids.empty()) {
    // Candidate 0's check is the first one a loop of utility() calls
    // makes; sweep overrides may then read the agent's committed entries.
    model::require_valid_deviation(agent, profile_.size(), bids[0],
                                   execution);
    sweep(agent, bids, execution, out.data(), nullptr);
  }
  note_sweep(*this, bids.size());
}

GridBest ProfileUtilityContext::best_response(std::size_t agent,
                                              std::span<const double> bids,
                                              double execution) const {
  LBMV_REQUIRE(!bids.empty(), "deviation grid must be non-empty");
  model::require_valid_deviation(agent, profile_.size(), bids[0], execution);
  GridBest best;
  sweep(agent, bids, execution, nullptr, &best);
  note_sweep(*this, bids.size());
  return best;
}

void ProfileUtilityContext::sweep(std::size_t agent,
                                  std::span<const double> bids,
                                  double execution, double* out,
                                  GridBest* best) const {
  for (std::size_t k = 0; k < bids.size(); ++k) {
    const double u = checked_utility(agent, bids[k], execution);
    if (out != nullptr) out[k] = u;
    if (best != nullptr && (k == 0 || u > best->utility)) *best = {k, u};
  }
}

ProfileUtilityContext::ProfileUtilityContext(PaymentRule rule,
                                             double arrival_rate,
                                             model::BidProfile base)
    : rule_(rule), arrival_rate_(arrival_rate), profile_(std::move(base)) {
  LBMV_REQUIRE(profile_.size() >= 2, "mechanisms require at least two agents");
  profile_.validate(profile_.size());
  LBMV_REQUIRE(arrival_rate_ > 0.0 && std::isfinite(arrival_rate_),
               "arrival rate must be positive and finite");
}

void ProfileUtilityContext::commit(std::size_t agent, double bid,
                                   double execution) {
  const BidDelta delta{agent, bid, execution};
  commit_batch(std::span(&delta, 1));
}

void ProfileUtilityContext::commit_batch(std::span<const BidDelta> deltas) {
  for (const BidDelta& d : deltas) {
    model::require_valid_deviation(d.agent, profile_.size(), d.bid,
                                   d.execution);
  }
  if (deltas.empty()) return;
  for (const BidDelta& d : deltas) {
    profile_.bids[d.agent] = d.bid;
    profile_.executions[d.agent] = d.execution;
  }
  rebuild();
  if (obs::enabled()) {
    obs::StrategyProbes::get().commits.inc(
        static_cast<std::uint64_t>(deltas.size()));
  }
}

std::unique_ptr<ProfileUtilityContext> Mechanism::make_profile_context(
    const model::LatencyFamily& family, double arrival_rate,
    const model::BidProfile& base) const {
  // A closed form exists exactly where a fused engine does (the
  // Archer–Tardos payment tail is linear-only); the reference context
  // answers everywhere else.
  const PaymentRule rule = payment_rule();
  switch (exact_family(family, *allocator_)) {
    case FamilyKind::kLinear:
      return std::make_unique<LinearPrProfileContext>(rule, arrival_rate,
                                                      base);
    case FamilyKind::kMm1:
      if (rule == PaymentRule::kArcherTardos) break;
      return std::make_unique<Mm1PrProfileContext>(rule, arrival_rate, base);
    case FamilyKind::kWorkload:
      if (rule == PaymentRule::kArcherTardos) break;
      return std::make_unique<WorkloadProfileContext>(
          rule, static_cast<const model::WorkloadFamily&>(family).gamma(),
          arrival_rate, base);
    case FamilyKind::kGeneric:
      break;
  }
  return make_reference_context(family, arrival_rate, base);
}

namespace {

/// The reference context (Mechanism::make_reference_context): no state but
/// the committed profile, one run_deviated per query.
class ReferenceProfileContext final : public ProfileUtilityContext {
 public:
  ReferenceProfileContext(const Mechanism& mechanism,
                          const model::LatencyFamily& family,
                          double arrival_rate, model::BidProfile base)
      : ProfileUtilityContext(mechanism.payment_rule(), arrival_rate,
                              std::move(base)),
        mechanism_(&mechanism),
        family_(&family) {}

  [[nodiscard]] bool closed_form() const override { return false; }

 protected:
  [[nodiscard]] double deviation_utility(std::size_t agent, double bid,
                                         double execution) const override {
    const BidDelta delta{agent, bid, execution};
    return mechanism_
        ->run_deviated(*family_, arrival_rate(), profile(),
                       std::span(&delta, 1))
        .agents[agent]
        .utility;
  }

  void rebuild() override {}

 private:
  const Mechanism* mechanism_;
  const model::LatencyFamily* family_;
};

}  // namespace

std::unique_ptr<ProfileUtilityContext> Mechanism::make_reference_context(
    const model::LatencyFamily& family, double arrival_rate,
    const model::BidProfile& base) const {
  return std::make_unique<ReferenceProfileContext>(*this, family, arrival_rate,
                                                   base);
}

const MechanismOutcome& Mechanism::run_deviated(
    const model::LatencyFamily& family, double arrival_rate,
    const model::BidProfile& base, std::span<const BidDelta> deltas) const {
  RoundWorkspace& ws = RoundWorkspace::thread_local_instance();
  model::BidProfile& profile = ws.scratch_profile;
  profile.bids.assign(base.bids.begin(), base.bids.end());
  profile.executions.assign(base.executions.begin(), base.executions.end());
  for (const BidDelta& d : deltas) {
    profile.bids[d.agent] = d.bid;
    profile.executions[d.agent] = d.execution;
  }
  run_into(family, arrival_rate, profile, ws.scratch_outcome, ws);
  return ws.scratch_outcome;
}

std::shared_ptr<const alloc::Allocator> default_allocator() {
  return std::make_shared<alloc::PRAllocator>();
}

}  // namespace lbmv::core
