#include "lbmv/core/delta_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/obs/probes.h"
#include "lbmv/util/error.h"

namespace lbmv::core {

DeltaRoundEngine::DeltaRoundEngine(
    const Mechanism& mechanism,
    std::shared_ptr<const model::LatencyFamily> family, double arrival_rate,
    std::span<const double> bids, std::span<const double> executions)
    : mechanism_(&mechanism),
      family_(std::move(family)),
      arrival_rate_(arrival_rate),
      kind_(FamilyKind::kGeneric) {
  LBMV_REQUIRE(family_ != nullptr, "delta engine requires a latency family");
  const std::size_t n = bids.size();
  LBMV_REQUIRE(n >= 2, "mechanisms require at least two agents");
  LBMV_REQUIRE(executions.size() == n, "execution vector size mismatch");
  LBMV_REQUIRE(arrival_rate_ > 0.0, "arrival rate must be positive");
  for (std::size_t i = 0; i < n; ++i) {
    LBMV_REQUIRE(bids[i] > 0.0, "bids must be positive");
    LBMV_REQUIRE(executions[i] > 0.0, "execution values must be positive");
  }

  kind_ = classify_family(*family_);
  const alloc::Allocator* allocator = &mechanism_->allocator();
  linear_pr_ =
      kind_ == FamilyKind::kLinear &&
      dynamic_cast<const alloc::PRAllocator*>(allocator) != nullptr;
  mm1_exact_ =
      kind_ == FamilyKind::kMm1 &&
      dynamic_cast<const alloc::MM1Allocator*>(allocator) != nullptr;
  workload_exact_ =
      kind_ == FamilyKind::kWorkload &&
      dynamic_cast<const alloc::WorkloadAllocator*>(allocator) != nullptr;
  if (kind_ == FamilyKind::kWorkload) {
    gamma_ = static_cast<const model::WorkloadFamily&>(*family_).gamma();
  }

  bids_.assign(bids.begin(), bids.end());
  execs_.assign(executions.begin(), executions.end());
  rebuild();
}

DeltaRoundEngine::DeltaRoundEngine(
    const Mechanism& mechanism,
    std::shared_ptr<const model::LatencyFamily> family, double arrival_rate,
    const model::BidProfile& initial)
    : DeltaRoundEngine(mechanism, std::move(family), arrival_rate,
                       initial.bids, initial.executions) {}

void DeltaRoundEngine::rebuild() {
  const std::size_t n = bids_.size();
  rebuild_period_ = std::max<std::size_t>(64, n);
  deltas_since_rebuild_ = 0;
  if (linear_pr_) {
    s_ = 0.0;
    w_ = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double inv = 1.0 / bids_[j];
      s_ += inv;
      w_ += execs_[j] * inv * inv;
    }
  }
  if (mm1_exact_) {
    mus_.resize(n);
    sqrt_mu_.resize(n);
    sum_mu_ = 0.0;
    sum_a_ = 0.0;
    min_a_ = std::numeric_limits<double>::infinity();
    inconsistent_count_ = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const double mu = 1.0 / bids_[j];
      const double a = std::sqrt(mu);
      mus_[j] = mu;
      sqrt_mu_[j] = a;
      sum_mu_ += mu;
      sum_a_ += a;
      min_a_ = std::min(min_a_, a);
      inconsistent_count_ +=
          static_cast<std::size_t>(execs_[j] != bids_[j]);
    }
    min_a_valid_ = true;
  }
  // The workload aggregate (the committed multiplier) is re-derived by the
  // next scalars() solve; there is no incremental sum to re-sum.
  scalars_valid_ = false;
  if (obs::enabled()) obs::CoreProbes::get().full_rebuilds.inc();
}

void DeltaRoundEngine::invalidate(std::size_t dirty) {
  scalars_valid_ = false;
  outcome_valid_ = false;
  if (obs::enabled()) {
    obs::CoreProbes& probes = obs::CoreProbes::get();
    probes.delta_rounds.inc();
    probes.dirty_agents.record(static_cast<double>(dirty));
  }
  deltas_since_rebuild_ += dirty;
  if (deltas_since_rebuild_ >= rebuild_period_) rebuild();
}

void DeltaRoundEngine::apply(std::size_t agent, double bid,
                             double execution) {
  const BidDelta delta{agent, bid, execution};
  apply(std::span<const BidDelta>(&delta, 1));
}

void DeltaRoundEngine::apply(std::span<const BidDelta> deltas) {
  if (deltas.empty()) return;
  for (const BidDelta& d : deltas) {
    LBMV_REQUIRE(d.agent < bids_.size(), "agent index out of range");
    LBMV_REQUIRE(d.bid > 0.0, "bids must be positive");
    LBMV_REQUIRE(d.execution > 0.0, "execution values must be positive");
    const std::size_t j = d.agent;
    const double old_bid = bids_[j];
    const double old_exec = execs_[j];
    if (linear_pr_) {
      s_ += 1.0 / d.bid - 1.0 / old_bid;
      w_ += d.execution / (d.bid * d.bid) -
            old_exec / (old_bid * old_bid);
    }
    if (mm1_exact_) {
      const double mu = 1.0 / d.bid;
      const double a = std::sqrt(mu);
      sum_mu_ += mu - mus_[j];
      sum_a_ += a - sqrt_mu_[j];
      if (min_a_valid_) {
        if (a <= min_a_) {
          min_a_ = a;
        } else if (sqrt_mu_[j] <= min_a_) {
          // The previous minimum moved up; only a re-scan can find the new
          // one, deferred to the next query that needs it.
          min_a_valid_ = false;
        }
      }
      inconsistent_count_ +=
          static_cast<std::size_t>(d.execution != d.bid);
      inconsistent_count_ -=
          static_cast<std::size_t>(old_exec != old_bid);
      mus_[j] = mu;
      sqrt_mu_[j] = a;
    }
    // A faster machine raises the conservation residual at the committed
    // multiplier, so the monotone-from-below Newton contract breaks: reset
    // to the solver's own cold start.  Slower machines keep the committed
    // multiplier a valid lower bound.
    if (workload_exact_ && d.bid < old_bid) lambda_warm_ = false;
    bids_[j] = d.bid;
    execs_[j] = d.execution;
  }
  invalidate(deltas.size());
}

std::size_t DeltaRoundEngine::sync(std::span<const double> bids,
                                   std::span<const double> executions) {
  const std::size_t n = bids_.size();
  LBMV_REQUIRE(bids.size() == n, "sync requires an unchanged agent count");
  LBMV_REQUIRE(executions.size() == n, "execution vector size mismatch");
  delta_scratch_.clear();
  for (std::size_t j = 0; j < n; ++j) {
    if (bids[j] == bids_[j] && executions[j] == execs_[j]) continue;
    delta_scratch_.push_back(BidDelta{j, bids[j], executions[j]});
  }
  if (!delta_scratch_.empty()) apply(delta_scratch_);
  return delta_scratch_.size();
}

std::size_t DeltaRoundEngine::add_agent(double bid, double execution) {
  LBMV_REQUIRE(bid > 0.0, "bids must be positive");
  LBMV_REQUIRE(execution > 0.0, "execution values must be positive");
  bids_.push_back(bid);
  execs_.push_back(execution);
  if (linear_pr_) {
    s_ += 1.0 / bid;
    w_ += execution / (bid * bid);
  }
  if (mm1_exact_) {
    const double mu = 1.0 / bid;
    const double a = std::sqrt(mu);
    mus_.push_back(mu);
    sqrt_mu_.push_back(a);
    sum_mu_ += mu;
    sum_a_ += a;
    if (min_a_valid_) min_a_ = std::min(min_a_, a);
    inconsistent_count_ += static_cast<std::size_t>(execution != bid);
  }
  // Extra capacity lowers the optimal multiplier below the committed one.
  if (workload_exact_) lambda_warm_ = false;
  note_membership_change();
  invalidate(1);
  return bids_.size() - 1;
}

void DeltaRoundEngine::remove_agent(std::size_t agent) {
  LBMV_REQUIRE(agent < bids_.size(), "agent index out of range");
  LBMV_REQUIRE(bids_.size() >= 3, "mechanisms require at least two agents");
  const double bid = bids_[agent];
  const double execution = execs_[agent];
  if (linear_pr_) {
    s_ -= 1.0 / bid;
    w_ -= execution / (bid * bid);
  }
  if (mm1_exact_) {
    sum_mu_ -= mus_[agent];
    sum_a_ -= sqrt_mu_[agent];
    if (min_a_valid_ && sqrt_mu_[agent] <= min_a_) min_a_valid_ = false;
    inconsistent_count_ -= static_cast<std::size_t>(execution != bid);
    mus_[agent] = mus_.back();
    mus_.pop_back();
    sqrt_mu_[agent] = sqrt_mu_.back();
    sqrt_mu_.pop_back();
  }
  // Removal shrinks every rate at a fixed multiplier, so the committed
  // multiplier still lower-bounds the subset optimum: the warm start stays
  // valid (workload_allocator.h's superset rule).
  bids_[agent] = bids_.back();
  bids_.pop_back();
  execs_[agent] = execs_.back();
  execs_.pop_back();
  note_membership_change();
  invalidate(1);
}

void DeltaRoundEngine::note_membership_change() {
  rebuild_period_ = std::max<std::size_t>(64, bids_.size());
}

void DeltaRoundEngine::ensure_min_a() {
  if (min_a_valid_) return;
  min_a_ = std::numeric_limits<double>::infinity();
  for (const double a : sqrt_mu_) min_a_ = std::min(min_a_, a);
  min_a_valid_ = true;
}

double DeltaRoundEngine::mm1_actual(double c) const {
  double actual = 0.0;
  for (std::size_t j = 0; j < bids_.size(); ++j) {
    const double x = mus_[j] - c * sqrt_mu_[j];
    const double mue = 1.0 / execs_[j];
    if (!(x >= 0.0 && x < mue)) alloc::throw_mm1_domain_error(j, x, mue);
    actual += x / (mue - x);
  }
  return actual;
}

const RoundScalars& DeltaRoundEngine::scalars() {
  if (scalars_valid_) return scalars_;
  const double r = arrival_rate_;
  const std::size_t n = bids_.size();
  if (linear_pr_) {
    // x_i = (R/S)/b_i, L* = R^2/S (paper eq. (4)); the reported total cost
    // equals the optimum because the PR allocation attains it, and the
    // verified total factors through W (DESIGN.md §10).
    const double optimal = r * r / s_;
    const double rs = r / s_;
    scalars_ = RoundScalars{optimal, optimal, rs * rs * w_, s_};
  } else if (mm1_exact_) {
    ensure_min_a();
    const double slack = sum_mu_ - r;
    const double c = slack / sum_a_;
    if (slack > alloc::kMm1MinRelativeSlack * sum_mu_ && c < min_a_) {
      // All computers active: every queue length is a_j/c - 1, so the
      // optimum is (sum a_j)/c - n, and a fully consistent profile
      // (e_j == b_j everywhere) incurs exactly that.
      const double optimal = sum_a_ / c - static_cast<double>(n);
      const double actual =
          inconsistent_count_ == 0 ? optimal : mm1_actual(c);
      scalars_ = RoundScalars{optimal, optimal, actual, c};
    } else {
      // Active-set churn or near-saturation: delegate to the exact solver,
      // which also re-raises the typed PreconditionError on infeasible
      // rounds (R >= sum mu) with the scalar path's diagnostics.
      scratch_.resize(n);
      const alloc::Mm1Solve solve = alloc::mm1_solve_into(mus_, r, scratch_);
      double actual = solve.optimal_latency;
      if (inconsistent_count_ != 0) {
        actual = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          const double x = scratch_[j];
          if (x == 0.0) continue;
          const double mue = 1.0 / execs_[j];
          if (!(x >= 0.0 && x < mue)) {
            alloc::throw_mm1_domain_error(j, x, mue);
          }
          actual += x / (mue - x);
        }
      }
      scalars_ = RoundScalars{solve.optimal_latency, solve.optimal_latency,
                              actual, solve.c};
    }
  } else if (workload_exact_) {
    // Irreducibly O(n * iters): the KKT multiplier couples every rate.  The
    // deltas buy the warm start — a committed multiplier that still
    // lower-bounds the optimum typically converges in one or two Newton
    // refinements instead of a cold solve.
    scratch_.resize(n);
    const double warm = lambda_warm_ ? lambda_ : 0.0;
    const alloc::WorkloadSolve solve =
        alloc::workload_solve_into(bids_, gamma_, r, scratch_, warm);
    lambda_ = solve.lambda;
    lambda_warm_ = true;
    double actual = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double x = scratch_[j];
      actual += x * ((execs_[j] * x) * (1.0 + gamma_ * x));
    }
    scalars_ = RoundScalars{solve.optimal_latency, solve.optimal_latency,
                            actual, solve.lambda};
  } else {
    // Generic fallback: materialize the round and read the totals off it.
    // optimal_latency here is the committed allocation's reported total —
    // the allocator's objective value, which is the optimum exactly when
    // the allocator is exact for the family (the same contract run_into
    // operates under).
    const MechanismOutcome& out = outcome();
    scalars_ =
        RoundScalars{out.reported_latency, out.reported_latency,
                     out.actual_latency,
                     ws_.pr_closed_form ? ws_.inverse_sum : 0.0};
  }
  scalars_valid_ = true;
  return scalars_;
}

double DeltaRoundEngine::leave_one_out(std::size_t agent) {
  LBMV_REQUIRE(agent < bids_.size(), "agent index out of range");
  const double r = arrival_rate_;
  if (linear_pr_) {
    // L_{-i} = R^2 / (S - 1/b_i), guarded against the cancellation profiles
    // exactly like pr_leave_one_out_from_sum: below the gap the closed form
    // carries no correct digits, so re-solve the subsystem exactly instead.
    const double rest = s_ - 1.0 / bids_[agent];
    if (rest > alloc::kLeaveOneOutMinRelativeGap * s_) return r * r / rest;
    return loo_slow(agent);
  }
  if (mm1_exact_) {
    ensure_min_a();
    const double rest_mu = sum_mu_ - mus_[agent];
    const double rest_a = sum_a_ - sqrt_mu_[agent];
    const double slack = rest_mu - r;
    // The O(1) form needs the remaining set all-active (min_{j!=i} a_j >
    // c'); when the removed agent is the minimum itself the rest-minimum is
    // unknown without a re-scan, so fall through to the exact re-solve.
    if (sqrt_mu_[agent] > min_a_ &&
        slack > alloc::kMm1MinRelativeSlack * rest_mu) {
      const double c = slack / rest_a;
      if (c < min_a_) return rest_a / c - static_cast<double>(size() - 1);
    }
    return loo_slow(agent);
  }
  return loo_slow(agent);
}

double DeltaRoundEngine::loo_slow(std::size_t agent) {
  scratch_.clear();
  scratch_.reserve(bids_.size() - 1);
  for (std::size_t j = 0; j < bids_.size(); ++j) {
    if (j != agent) scratch_.push_back(bids_[j]);
  }
  return mechanism_->allocator().optimal_latency(*family_, scratch_,
                                                 arrival_rate_);
}

const MechanismOutcome& DeltaRoundEngine::outcome() {
  if (!outcome_valid_) {
    mechanism_->run_into(*family_, arrival_rate_, bids_, execs_, outcome_,
                         ws_);
    outcome_valid_ = true;
  }
  return outcome_;
}

}  // namespace lbmv::core
