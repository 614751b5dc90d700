// Differential and boundary suite for the fused nonlinear-family kernels
// (core/family_round.h, core/family_context.h, DESIGN.md §14).
//
// Contracts under test:
//   * Capacity boundaries surface as typed PreconditionErrors — infeasible
//     R >= sum mu, the near-saturation cancellation guard, leave-one-out
//     subsystems that cannot absorb the load (naming the offending agent),
//     and execution-side overload x_i >= mu~_i — identically on the fused
//     (kVectorized) and generic (kScalar) paths.
//   * The workload-family Newton solve agrees with a long-double bisection
//     oracle on the KKT multiplier to 1e-9 relative.
//   * Fused rounds agree with the generic virtual-dispatch path to 1e-9
//     relative across both families, every payment rule, and lane-tail
//     sizes.
//   * The M/M/1 deviation-grid kernels (GridEvaluator) are bit-identical to
//     the scalar DeviationEvaluator oracle at any thread count, and
//     audit_all grids are bit-identical parallel vs serial; both families
//     stay truthful-dominant under audit_all.
//
// The whole file runs under the ASan/UBSan and LBMV_SIMD=OFF CI legs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/delta_engine.h"
#include "lbmv/core/family_context.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/strategy/deviation.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/strategy/grid_eval.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"
#include "nonlinear_oracles.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::KernelBackend;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::RoundWorkspace;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::MM1Family;
using lbmv::model::SystemConfig;
using lbmv::model::WorkloadFamily;
using lbmv::strategy::DeviationEvaluator;
using lbmv::strategy::GridEvaluator;
using lbmv::util::PreconditionError;

/// Backend save/restore so every test leaves the process default intact.
class BackendGuard {
 public:
  BackendGuard() : saved_(lbmv::core::kernel_backend()) {}
  ~BackendGuard() { lbmv::core::set_kernel_backend(saved_); }

 private:
  KernelBackend saved_;
};

/// Mean service times with mu = 1/theta in [1, 2]: at arrival rates up to
/// roughly half the total capacity every computer stays active in the full
/// set and all leave-one-out subsystems.  Idle-server profiles, which the
/// fused M/M/1 engine serves too, are covered in test_nonlinear_loo.cpp.
std::vector<double> narrow_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) ti = rng.uniform(0.5, 1.0);
  return t;
}

double sum_mu(std::span<const double> thetas) {
  double s = 0.0;
  for (double t : thetas) s += 1.0 / t;
  return s;
}

/// Half the capacity of the weakest leave-one-out subsystem: feasible (with
/// 2x slack) in the full set and every rest set, down to n = 2.
double feasible_rate(std::span<const double> thetas) {
  double max_mu = 0.0;
  for (double t : thetas) max_mu = std::max(max_mu, 1.0 / t);
  return 0.5 * (sum_mu(thetas) - max_mu);
}

/// Every mechanism the fused engines serve, bound to \p allocator.
std::vector<std::unique_ptr<Mechanism>> family_mechanisms(
    const std::shared_ptr<const lbmv::alloc::Allocator>& allocator) {
  std::vector<std::unique_ptr<Mechanism>> ms;
  ms.push_back(std::make_unique<CompBonusMechanism>(allocator));
  ms.push_back(
      std::make_unique<CompBonusMechanism>(allocator, CompensationBasis::kBid));
  ms.push_back(std::make_unique<VcgMechanism>(allocator));
  ms.push_back(std::make_unique<NoPaymentMechanism>(allocator));
  return ms;
}

double rel_err(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::fabs(b));
}

double outcome_rel_err(const MechanismOutcome& a, const MechanismOutcome& b) {
  EXPECT_EQ(a.agents.size(), b.agents.size());
  double err = rel_err(a.actual_latency, b.actual_latency);
  err = std::max(err, rel_err(a.reported_latency, b.reported_latency));
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    err = std::max(err, rel_err(a.allocation[i], b.allocation[i]));
    err = std::max(err, rel_err(a.agents[i].compensation,
                                b.agents[i].compensation));
    err = std::max(err, rel_err(a.agents[i].bonus, b.agents[i].bonus));
    err = std::max(err, rel_err(a.agents[i].payment, b.agents[i].payment));
    err = std::max(err, rel_err(a.agents[i].utility, b.agents[i].utility));
  }
  return err;
}

// ---------------------------------------------------------------------------
// Capacity boundaries: typed PreconditionErrors on both backends.

TEST(Mm1Boundary, InfeasibleArrivalRateThrowsTypedOnBothBackends) {
  const MM1Family family;
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const std::vector<double> thetas{0.5, 0.5, 1.0};  // sum mu = 5
  RoundWorkspace ws;
  MechanismOutcome out;
  BackendGuard guard;
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kVectorized}) {
    lbmv::core::set_kernel_backend(backend);
    for (double rate : {5.0, 7.5}) {  // R == sum mu and R > sum mu
      EXPECT_THROW(
          mechanism.run_into(family, rate, thetas, thetas, out, ws),
          PreconditionError)
          << "rate " << rate;
    }
  }
}

TEST(Mm1Boundary, NearSaturationCancellationGuardThrowsTyped) {
  // R within 1e-9 of sum mu: the closed form would return only cancelled
  // digits, so the allocator refuses instead of returning noise.
  const std::vector<double> mus{2.0, 2.0, 1.0};
  std::vector<double> rates(mus.size());
  const double total = 5.0;
  EXPECT_THROW(
      (void)lbmv::alloc::mm1_solve_into(mus, total * (1.0 - 1e-12), rates),
      PreconditionError);
  // Just outside the guard the solve succeeds.
  EXPECT_NO_THROW(
      (void)lbmv::alloc::mm1_solve_into(mus, total * (1.0 - 1e-6), rates));
}

TEST(Mm1Boundary, LeaveOneOutOverloadNamesTheOffendingAgent) {
  // Removing the dominant computer 0 (mu = 10) leaves capacity 2 < R = 5:
  // the leave-one-out subsystem is infeasible and the error must say whose
  // departure caused it.
  const MM1Family family;
  const lbmv::alloc::MM1Allocator allocator;
  const std::vector<double> thetas{0.1, 1.0, 1.0};
  std::vector<double> loo;
  try {
    allocator.leave_one_out_into(family, thetas, 5.0, loo);
    FAIL() << "infeasible leave-one-out subsystem did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("without computer 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Mm1Boundary, ExecutionOverloadThrowsTypedOnBothBackends) {
  // Underbid-and-slack: computer 0 bids fast (mu = 10) but executes slow
  // (mu~ = 1).  Its assignment x_0 approaches the bid capacity from below —
  // far beyond the *actual* capacity, x_0 >= mu~_0 — so the actual-latency
  // pass must throw the typed domain error on both backends (the fused
  // engine declines such rounds; the generic path owns the diagnostic).
  const MM1Family family;
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const std::vector<double> bids{0.1, 0.5, 0.5};
  const std::vector<double> execs{1.0, 0.5, 0.5};
  RoundWorkspace ws;
  MechanismOutcome out;
  BackendGuard guard;
  for (KernelBackend backend :
       {KernelBackend::kScalar, KernelBackend::kVectorized}) {
    lbmv::core::set_kernel_backend(backend);
    try {
      mechanism.run_into(family, 10.0, bids, execs, out, ws);
      FAIL() << "overloaded execution did not throw";
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("0 <= x < mu"), std::string::npos)
          << e.what();
    }
  }
}

/// Runs \p fn and expects the typed M/M/1 domain error naming \p agent.
template <class Fn>
void expect_domain_error_names(Fn fn, std::size_t agent) {
  try {
    fn();
    ADD_FAILURE() << "execution overload did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0 <= x < mu"), std::string::npos) << what;
    EXPECT_NE(what.find("computer " + std::to_string(agent) + " "),
              std::string::npos)
        << what;
  }
}

TEST(Mm1Boundary, ExecutionOverloadNamesTheAgentAtEverySite) {
  using lbmv::core::LinearPrRule;
  using lbmv::core::Mm1PrProfileContext;
  // Committed profile: computer 2 bids mu = 10 but executes at mu~ = 1 and
  // is assigned x_2 ~ 7.9 > 1 (the context's rebuild).
  expect_domain_error_names(
      [] {
        Mm1PrProfileContext(LinearPrRule::kCompBonusExecution, 10.0,
                            BidProfile{{0.5, 0.5, 0.1}, {0.5, 0.5, 1.0}});
      },
      2);
  // Deviations by computer 1 against a uniform profile: a moderate
  // speed-up keeps everyone active (utility()'s closed-form branch), a
  // large one drops the rest out (the full re-solve branch).
  const Mm1PrProfileContext context(
      LinearPrRule::kCompBonusExecution, 2.0,
      BidProfile{{0.5, 0.5, 0.5, 0.5}, {0.5, 0.5, 0.5, 0.5}});
  expect_domain_error_names([&] { (void)context.utility(1, 0.3, 1.0); }, 1);
  expect_domain_error_names([&] { (void)context.utility(1, 0.1, 1.0); }, 1);

  // The delta engine's cached round: all-active and active-set profiles.
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const auto family = std::make_shared<const MM1Family>();
  for (double fast_bid : {0.3, 0.1}) {
    lbmv::core::DeltaRoundEngine engine(
        mechanism, family, 2.0,
        BidProfile{{0.5, 0.5, fast_bid}, {0.5, 0.5, 1.0}});
    expect_domain_error_names([&] { (void)engine.outcome(); }, 2);
  }
}

// ---------------------------------------------------------------------------
// Workload Newton vs long-double bisection oracle.

double bisection_max_rel_err(std::span<const double> thetas, double gamma,
                             double arrival_rate,
                             std::span<const double> newton_rates) {
  const long double lambda = lbmv_test::workload_bisection_lambda(
      thetas, gamma, arrival_rate, thetas.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const long double oracle =
        lbmv_test::workload_rate(lambda, thetas[i], gamma);
    max_err = std::max(
        max_err,
        static_cast<double>(
            std::fabs(static_cast<long double>(newton_rates[i]) - oracle) /
            std::fmax(1.0L, std::fabs(oracle))));
  }
  return max_err;
}

TEST(WorkloadNewton, MatchesLongDoubleBisectionOracle) {
  for (std::size_t n : {2u, 5u, 64u, 257u}) {
    for (double gamma : {0.1, 0.5, 2.0}) {
      const auto thetas = narrow_types(n, 31 * n + 7);
      for (double rate : {0.5, static_cast<double>(n), 10.0 * n}) {
        std::vector<double> rates(n);
        const lbmv::alloc::WorkloadSolve solve =
            lbmv::alloc::workload_solve_into(thetas, gamma, rate, rates);
        EXPECT_LE(solve.iterations, lbmv::alloc::kWorkloadNewtonMaxIters);
        EXPECT_LE(bisection_max_rel_err(thetas, gamma, rate, rates), 1e-9)
            << "n=" << n << " gamma=" << gamma << " R=" << rate;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused vs generic differential across rules, families, and lane tails.

TEST(FusedDifferential, Mm1FusedRoundsMatchGenericPath) {
  const MM1Family family;
  const auto allocator = std::make_shared<const lbmv::alloc::MM1Allocator>();
  RoundWorkspace ws;
  MechanismOutcome fused;
  MechanismOutcome generic;
  BackendGuard guard;
  for (std::size_t n : {2u, 5u, 64u, 257u}) {  // covers every lane tail
    const auto thetas = narrow_types(n, 17 * n + 1);
    auto execs = thetas;
    for (double& e : execs) e *= 1.05;
    const double rate = feasible_rate(thetas);
    for (const auto& mechanism : family_mechanisms(allocator)) {
      lbmv::core::set_kernel_backend(KernelBackend::kScalar);
      mechanism->run_into(family, rate, thetas, execs, generic, ws);
      lbmv::core::set_kernel_backend(KernelBackend::kVectorized);
      mechanism->run_into(family, rate, thetas, execs, fused, ws);
      EXPECT_LE(outcome_rel_err(fused, generic), 1e-9)
          << mechanism->name() << " n=" << n;
    }
  }
}

TEST(FusedDifferential, WorkloadFusedRoundsMatchGenericPath) {
  const WorkloadFamily family(0.5);
  const auto allocator =
      std::make_shared<const lbmv::alloc::WorkloadAllocator>();
  RoundWorkspace ws;
  MechanismOutcome fused;
  MechanismOutcome generic;
  BackendGuard guard;
  for (std::size_t n : {2u, 5u, 64u, 257u}) {
    const auto thetas = narrow_types(n, 23 * n + 5);
    auto execs = thetas;
    for (double& e : execs) e *= 1.4;
    const double rate = static_cast<double>(n);
    for (const auto& mechanism : family_mechanisms(allocator)) {
      lbmv::core::set_kernel_backend(KernelBackend::kScalar);
      mechanism->run_into(family, rate, thetas, execs, generic, ws);
      lbmv::core::set_kernel_backend(KernelBackend::kVectorized);
      mechanism->run_into(family, rate, thetas, execs, fused, ws);
      EXPECT_LE(outcome_rel_err(fused, generic), 1e-9)
          << mechanism->name() << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// M/M/1 grid kernels: bit-identical to the scalar oracle at any thread
// count.

TEST(Mm1Grid, GridEvaluatorBitIdenticalToScalarOracle) {
  const std::size_t n = 9;
  const double rate = 0.4 * sum_mu(narrow_types(n, 3));
  const SystemConfig config(narrow_types(n, 3), rate,
                            std::make_shared<const MM1Family>());
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const DeviationEvaluator evaluator(mechanism, config);
  ASSERT_TRUE(evaluator.incremental());
  ASSERT_NE(dynamic_cast<const lbmv::core::Mm1PrProfileContext*>(
                evaluator.profile_context()),
            nullptr);

  for (std::size_t threads : {1u, 2u, 8u}) {
    lbmv::util::ThreadPool pool(threads);
    const GridEvaluator grid_eval(evaluator, &pool);
    EXPECT_TRUE(grid_eval.vectorized());
    for (std::size_t agent = 0; agent < n; ++agent) {
      const double truth = config.true_value(agent);
      // Wide grid: interior candidates ride the all-active fast path while
      // very slow bids (8x truth) drop the deviator out of the active set
      // and defer whole lane blocks to the scalar oracle — both must match
      // bit for bit.  The fast edge stays at 0.9x truth: faster bids win an
      // assignment beyond the agent's true capacity, where the domain
      // REQUIRE fires (covered by Mm1Boundary).  Sizes off the lane
      // multiple cover tail padding.
      for (std::size_t points : {2u, 6u, 103u}) {
        const std::vector<double> bids = lbmv::strategy::make_bid_grid(
            0.9 * truth, 8.0 * truth, points,
            lbmv::strategy::GridSpacing::kLinear);
        std::vector<double> fast(points);
        grid_eval.utilities_into(agent, bids, truth, fast);
        double best_u = evaluator.utility(agent, bids[0], truth);
        std::size_t best_k = 0;
        for (std::size_t k = 0; k < points; ++k) {
          const double oracle = evaluator.utility(agent, bids[k], truth);
          EXPECT_EQ(fast[k], oracle)  // bit-identical, not just close
              << "agent " << agent << " candidate " << k;
          if (oracle > best_u) {
            best_u = oracle;
            best_k = k;
          }
        }
        const GridEvaluator::Best best =
            grid_eval.best_response(agent, bids, truth);
        EXPECT_EQ(best.index, best_k);
        EXPECT_EQ(best.utility, best_u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// audit_all: both families truthful-dominant, grids bit-identical parallel
// vs serial.

TEST(FamilyAudit, Mm1AuditAllTruthfulDominantAndThreadInvariant) {
  const SystemConfig config({0.1, 0.1, 0.2, 0.5, 0.5}, 12.0,
                            std::make_shared<const MM1Family>());
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions serial;
  serial.bid_multipliers = {0.85, 0.9, 1.0, 1.2, 1.5, 2.0, 3.0};
  serial.exec_multipliers = {1.0, 1.1, 1.2};
  serial.parallel = false;
  serial.keep_grid = true;
  lbmv::core::AuditOptions parallel = serial;
  parallel.parallel = true;

  const auto serial_reports = auditor.audit_all(config, serial);
  const auto parallel_reports = auditor.audit_all(config, parallel);
  ASSERT_EQ(serial_reports.size(), config.size());
  for (std::size_t i = 0; i < serial_reports.size(); ++i) {
    EXPECT_TRUE(serial_reports[i].truthful_dominant(1e-6))
        << "agent " << i << " gains " << serial_reports[i].max_gain;
    ASSERT_EQ(serial_reports[i].grid.size(), parallel_reports[i].grid.size());
    for (std::size_t k = 0; k < serial_reports[i].grid.size(); ++k) {
      EXPECT_EQ(serial_reports[i].grid[k].utility,
                parallel_reports[i].grid[k].utility)
          << "agent " << i << " grid point " << k;
    }
  }
}

TEST(FamilyAudit, WorkloadAuditAllTruthfulDominantAndThreadInvariant) {
  const SystemConfig config({0.2, 0.3, 0.5, 0.8}, 6.0,
                            std::make_shared<const WorkloadFamily>(0.5));
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::WorkloadAllocator>());
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions serial;
  serial.bid_multipliers = {0.5, 0.8, 1.0, 1.3, 2.0};
  serial.exec_multipliers = {1.0, 1.5};
  serial.parallel = false;
  serial.keep_grid = true;
  lbmv::core::AuditOptions parallel = serial;
  parallel.parallel = true;

  const auto serial_reports = auditor.audit_all(config, serial);
  const auto parallel_reports = auditor.audit_all(config, parallel);
  for (std::size_t i = 0; i < serial_reports.size(); ++i) {
    EXPECT_TRUE(serial_reports[i].truthful_dominant(1e-6))
        << "agent " << i << " gains " << serial_reports[i].max_gain;
    for (std::size_t k = 0; k < serial_reports[i].grid.size(); ++k) {
      EXPECT_EQ(serial_reports[i].grid[k].utility,
                parallel_reports[i].grid[k].utility)
          << "agent " << i << " grid point " << k;
    }
  }
}

}  // namespace
