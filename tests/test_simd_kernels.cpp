// Differential tests for the vectorized round engine and its block kernels.
//
// The contract under test (DESIGN.md §12): on the linear-family /
// PR-allocator configuration the vectorized engine (Mechanism::run_into)
// agrees with the reference path (Mechanism::run_reference_into) to a
// bounded relative error of 1e-9 on every published value — the engine
// reassociates S, computes both latency totals in closed form and
// multiplies rates by one precomputed share, each an O(n·eps) perturbation
// — while the per-agent leave-one-out and Archer–Tardos tail terms of the
// fused publish, which apply the reference operand order exactly, match it
// bit-for-bit at equal S.  Invalid inputs throw the shared input check's
// diagnostics, and finite inputs never publish a non-finite outcome.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/pr_simd.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/simd.h"

namespace {

using lbmv::core::ArcherTardosMechanism;
using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::RoundWorkspace;
using lbmv::core::VcgMechanism;

/// The engine's documented cross-engine bound (DESIGN.md §12).  The
/// measured deviation is ~1e-13 at n = 10^6; 1e-9 is the contract.
constexpr double kUlpBound = 1e-9;

struct Profile {
  std::vector<double> bids;
  std::vector<double> executions;
};

/// Log-uniform bids over a wide dynamic range, executions correlated but
/// distinct, so neither plane is degenerate and S spans decades with n.
Profile random_profile(std::size_t n, std::uint64_t seed, double lo = 0.2,
                       double hi = 20.0) {
  lbmv::util::Rng rng(seed);
  Profile p;
  p.bids.resize(n);
  p.executions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.bids[i] = std::exp(rng.uniform(std::log(lo), std::log(hi)));
    p.executions[i] = p.bids[i] * std::exp(rng.uniform(-0.5, 0.5));
  }
  return p;
}

/// One round through the vectorized engine itself, which must serve it: a
/// decline would hand run_into's round to the reference path and compare
/// the oracle against itself.
void run_fused(const Mechanism& m, double rate, const Profile& p,
               MechanismOutcome& out, RoundWorkspace& ws) {
  EXPECT_TRUE(lbmv::core::run_linear_pr_vectorized(
      m.payment_rule(), rate, p.bids, p.executions, out, ws))
      << m.name() << " n=" << p.bids.size() << ": the engine declined";
}

/// The same round through the reference path, the oracle.
void run_reference(const Mechanism& m, double rate, const Profile& p,
                   MechanismOutcome& out, RoundWorkspace& ws) {
  const lbmv::model::LinearFamily family;
  m.run_reference_into(family, rate, p.bids, p.executions, out, ws);
}

double rel_err(double a, double b, double floor = 1e-300) {
  const double scale = std::max({std::abs(a), std::abs(b), floor});
  return std::abs(a - b) / scale;
}

/// Largest relative discrepancy over every published value of two outcomes.
/// \p floor sets the smallest magnitude a discrepancy is measured against:
/// 0 demands per-field relative agreement; passing the round's latency
/// scale L* instead measures deviations against the magnitude the payment
/// terms are differences *of*, which is the meaningful bound when extreme
/// bid ranges make a payment's own magnitude cancel (e.g. VCG's externality
/// of a negligible agent).
double max_outcome_rel_err(const MechanismOutcome& a,
                           const MechanismOutcome& b, double floor = 0.0) {
  EXPECT_EQ(a.agents.size(), b.agents.size());
  EXPECT_EQ(a.allocation.size(), b.allocation.size());
  double worst = 0.0;
  worst = std::max(worst, rel_err(a.actual_latency, b.actual_latency, floor));
  worst = std::max(worst,
                   rel_err(a.reported_latency, b.reported_latency, floor));
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    worst = std::max(worst, rel_err(a.allocation[i], b.allocation[i]));
    worst = std::max(worst, rel_err(a.agents[i].allocation,
                                    b.agents[i].allocation));
    worst = std::max(worst, rel_err(a.agents[i].compensation,
                                    b.agents[i].compensation, floor));
    worst = std::max(worst,
                     rel_err(a.agents[i].bonus, b.agents[i].bonus, floor));
    worst = std::max(worst,
                     rel_err(a.agents[i].payment, b.agents[i].payment, floor));
    worst = std::max(worst, rel_err(a.agents[i].valuation,
                                    b.agents[i].valuation, floor));
    worst = std::max(worst,
                     rel_err(a.agents[i].utility, b.agents[i].utility, floor));
  }
  return worst;
}

std::vector<std::unique_ptr<Mechanism>> all_vector_mechanisms() {
  std::vector<std::unique_ptr<Mechanism>> ms;
  ms.push_back(std::make_unique<CompBonusMechanism>());  // execution basis
  ms.push_back(std::make_unique<CompBonusMechanism>(
      lbmv::core::default_allocator(), CompensationBasis::kBid));
  ms.push_back(std::make_unique<VcgMechanism>());
  ms.push_back(std::make_unique<ArcherTardosMechanism>());
  ms.push_back(std::make_unique<NoPaymentMechanism>());
  return ms;
}

// ---------------------------------------------------------------------------
// Differential: vectorized engine vs reference path, every mechanism, both
// bases.

TEST(SimdKernels, MatchesReferenceAcrossMechanismsAndSizes) {
  // Sizes cover: below one vector, exact vector multiples, every tail
  // residue mod 4 (the lane count), and spans into multiple 8-agent steps.
  const std::size_t sizes[] = {2, 3, 4, 5, 7, 8, 9, 64, 100, 257, 1023,
                               1024, 1025};
  const auto mechanisms = all_vector_mechanisms();
  for (const auto& m : mechanisms) {
    for (const std::size_t n : sizes) {
      const Profile p = random_profile(n, 1000 + n);
      MechanismOutcome reference_out, simd_out;
      RoundWorkspace reference_ws, simd_ws;
      run_reference(*m, 9.0, p, reference_out, reference_ws);
      run_fused(*m, 9.0, p, simd_out, simd_ws);
      EXPECT_LE(max_outcome_rel_err(reference_out, simd_out), kUlpBound)
          << m->name() << " n=" << n;
    }
  }
}

TEST(SimdKernels, MatchesReferenceOnBoundaryBids) {
  // Extreme dynamic range: 1e-8 .. 1e8 bids stress S against individual
  // 1/b_i and push the leave-one-out rests S - 1/b_i toward cancellation.
  const auto mechanisms = all_vector_mechanisms();
  for (const auto& m : mechanisms) {
    const Profile p = random_profile(301, 77, 1e-8, 1e8);
    MechanismOutcome reference_out, simd_out;
    RoundWorkspace reference_ws, simd_ws;
    run_reference(*m, 3.5, p, reference_out, reference_ws);
    run_fused(*m, 3.5, p, simd_out, simd_ws);
    // Measured against the round's latency scale: a 10^16 dynamic range in
    // bids makes some payments (an externality of a negligible agent)
    // cancel below their constituents, where per-field relative agreement
    // is not a property either engine has.
    const double floor = std::abs(reference_out.reported_latency);
    EXPECT_LE(max_outcome_rel_err(reference_out, simd_out, floor), kUlpBound)
        << m->name();
  }
}

// ---------------------------------------------------------------------------
// Bit-identical pieces: the fused publish applies the scalar operand order
// to the per-agent leave-one-out and Archer–Tardos tail terms, so at equal S
// they are not merely close but equal.  n = 1027 fits in one engine block
// (and forces a lane tail), so the engine's S is exactly the reciprocal
// block's partial sum.

/// S of a one-block round, as the engine reduces it.
double one_block_inverse_sum(const Profile& p) {
  std::vector<double> inv(p.bids.size());
  return lbmv::alloc::simd::pr_reciprocal_block(p.bids, p.executions, inv)
      .inverse_sum;
}

TEST(SimdKernels, FusedLeaveOneOutBonusBitIdenticalAtEqualSum) {
  const std::size_t n = 1027;
  const Profile p = random_profile(n, 5);
  const double rate = 4.0;
  const double sum = one_block_inverse_sum(p);
  MechanismOutcome out;
  RoundWorkspace ws;
  run_fused(CompBonusMechanism(), rate, p, out, ws);
  const double r2 = rate * rate;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.agents[i].bonus,
              r2 / (sum - 1.0 / p.bids[i]) - out.actual_latency)
        << "agent " << i;
  }
}

TEST(SimdKernels, FusedArcherTardosTailBitIdenticalAtEqualSum) {
  const std::size_t n = 1027;
  const Profile p = random_profile(n, 6);
  const double rate = 4.0;
  const double sum = one_block_inverse_sum(p);
  MechanismOutcome out;
  RoundWorkspace ws;
  run_fused(ArcherTardosMechanism(), rate, p, out, ws);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out.agents[i].bonus,
              lbmv::core::archer_tardos_tail_integral(
                  p.bids[i], sum - 1.0 / p.bids[i], rate))
        << "agent " << i;
  }
}

TEST(SimdKernels, FusedRoundLeavesADominantAgentToTheReferencePath) {
  // Agent 700 holds almost all of S, so its S - 1/b_i would cancel
  // (alloc::pr_rest_cancels): the engine declines, and run_into publishes
  // the reference path's round bit for bit, whose agent 700 is priced at
  // its summed rest alloc::pr_rest_at.  Slowed until its rest keeps more
  // than 2^-4 of S, the same agent is served by the engine again.
  const std::size_t n = 1027;
  Profile p = random_profile(n, 7);
  const double rate = 4.0;
  const lbmv::model::LinearFamily family;
  const CompBonusMechanism m;
  p.bids[700] *= 1e-12;
  MechanismOutcome fused, via_run_into, reference;
  RoundWorkspace fused_ws, ws, reference_ws;
  EXPECT_FALSE(lbmv::core::run_linear_pr_vectorized(
      m.payment_rule(), rate, p.bids, p.executions, fused, fused_ws));
  m.run_into(family, rate, p.bids, p.executions, via_run_into, ws);
  run_reference(m, rate, p, reference, reference_ws);
  EXPECT_EQ(max_outcome_rel_err(via_run_into, reference), 0.0);
  double sum = 0.0;
  for (const double b : p.bids) sum += 1.0 / b;
  ASSERT_TRUE(lbmv::alloc::pr_rest_cancels(sum, 1.0 / p.bids[700]));
  EXPECT_EQ(reference.agents[700].bonus,
            rate * rate / lbmv::alloc::pr_rest_at(sum, p.bids, 700) -
                reference.actual_latency);

  const double rest = sum - 1.0 / p.bids[700];
  p.bids[700] = 1.0 / (14.0 * rest);  // 1/b_700 = 14 times the rest
  run_fused(m, rate, p, fused, fused_ws);
}

/// Agent i's bonus under \p m's rule at the rest \p rest, against the
/// round's published totals.
double bonus_at_rest(const Mechanism& m, const MechanismOutcome& out,
                     double rate, double bid, double rest) {
  const double loo = rate * rate / rest;
  switch (m.payment_rule()) {
    case lbmv::core::PaymentRule::kCompBonusExecution:
    case lbmv::core::PaymentRule::kCompBonusBid:
      return loo - out.actual_latency;
    case lbmv::core::PaymentRule::kVcg:
      return loo - out.reported_latency;
    case lbmv::core::PaymentRule::kArcherTardos:
      return lbmv::core::archer_tardos_tail(bid, rest, rate * rate);
    case lbmv::core::PaymentRule::kNoPayment:
      break;
  }
  return 0.0;
}

TEST(SimdKernels, DominantAgentIsPricedAtItsSummedRestOnBothPaths) {
  // Agent 0 is so much faster than the rest that S - 1/b_0 cancels: at
  // {1e-12, 1} to about 12 of its 16 digits, and at {1e-20, 1e20}
  // entirely (1/b_1 is absorbed into S).  The engine declines each round,
  // so run_into and the reference path both sum agent 0's rest from the
  // others (alloc::pr_rest_at): with n = 2 every rest is the other agent's
  // 1/b_j exactly, and every bonus is the rule's at that rest.  The third
  // profile spans three engine blocks with the dominant agent in the
  // second, against a long-double direct sum.
  Profile wide = random_profile(2 * 4096 + 13, 31);
  wide.bids[4500] *= 1e-12;
  const Profile profiles[] = {
      {{1e-12, 1.0}, {1e-12, 1.0}}, {{1e-20, 1e20}, {1e-20, 1e20}}, wide};
  const double rate = 2.0;
  for (const auto& m : all_vector_mechanisms()) {
    for (const Profile& p : profiles) {
      const std::size_t n = p.bids.size();
      SCOPED_TRACE(m->name() + " n=" + std::to_string(n));
      MechanismOutcome fused, via_run_into, reference;
      RoundWorkspace fused_ws, ws, reference_ws;
      EXPECT_FALSE(lbmv::core::run_linear_pr_vectorized(
          m->payment_rule(), rate, p.bids, p.executions, fused, fused_ws));
      m->run_into(lbmv::model::LinearFamily(), rate, p.bids, p.executions,
                  via_run_into, ws);
      run_reference(*m, rate, p, reference, reference_ws);
      const std::vector<std::size_t> agents =
          n == 2 ? std::vector<std::size_t>{0, 1}
                 : std::vector<std::size_t>{0, 4500, n - 1};
      for (const std::size_t i : agents) {
        long double rest = 0.0L;
        for (std::size_t j = 0; j < n; ++j) {
          if (j != i) rest += 1.0L / p.bids[j];
        }
        const double oracle_rest = static_cast<double>(rest);
        const double scale = rate * rate / oracle_rest;
        const double tol = (n == 2 ? 1e-15 : 1e-13) * scale;
        for (const MechanismOutcome* out : {&via_run_into, &reference}) {
          EXPECT_NEAR(out->agents[i].bonus,
                      bonus_at_rest(*m, *out, rate, p.bids[i], oracle_rest),
                      tol)
              << "agent " << i
              << (out == &reference ? " reference" : " run_into");
          EXPECT_TRUE(std::isfinite(out->agents[i].utility)) << "agent " << i;
        }
      }
    }
  }
}

TEST(SimdKernels, ReciprocalBlockFlagsNonPositiveLanes) {
  const Profile clean = random_profile(37, 8);
  std::vector<double> inv(37);
  const auto valid = [&](const Profile& p) {
    return lbmv::alloc::simd::pr_reciprocal_block(p.bids, p.executions, inv)
        .inputs_valid;
  };
  EXPECT_TRUE(valid(clean));
  Profile p = clean;
  p.bids[17] = 0.0;
  EXPECT_FALSE(valid(p));
  p = clean;
  p.executions[36] = std::numeric_limits<double>::quiet_NaN();  // tail lane
  EXPECT_FALSE(valid(p));
  p = clean;
  p.bids[9] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(valid(p));
  p = clean;
  p.executions[33] = std::numeric_limits<double>::infinity();  // 4-wide step
  EXPECT_FALSE(valid(p));
}

// ---------------------------------------------------------------------------
// Workspace reuse across different mechanisms and sizes stays consistent
// (the plane-recycling and 4K-dodge offsets must never leak stale state).

TEST(SimdKernels, WorkspaceReuseAcrossSizesAndRules) {
  const auto mechanisms = all_vector_mechanisms();
  MechanismOutcome simd_out;
  RoundWorkspace simd_ws;  // shared across every run below
  const std::size_t sizes[] = {1024, 17, 513, 1024, 64};
  for (const std::size_t n : sizes) {
    for (const auto& m : mechanisms) {
      const Profile p = random_profile(n, 2000 + n);
      MechanismOutcome reference_out;
      RoundWorkspace reference_ws;
      run_reference(*m, 5.0, p, reference_out, reference_ws);
      run_fused(*m, 5.0, p, simd_out, simd_ws);
      EXPECT_LE(max_outcome_rel_err(reference_out, simd_out), kUlpBound)
          << m->name() << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Diagnostics: every engine applies the one shared input check, so a bad
// input throws the same PreconditionError naming the agent; finite inputs
// the closed forms cannot carry fall back to the reference path instead
// of publishing a non-finite outcome.

/// Runs \p m through run_into and expects a PreconditionError whose text
/// contains \p needle.
void expect_precondition(const Mechanism& m, double rate, const Profile& p,
                         const std::string& needle) {
  const lbmv::model::LinearFamily family;
  MechanismOutcome out;
  RoundWorkspace ws;
  try {
    m.run_into(family, rate, p.bids, p.executions, out, ws);
    ADD_FAILURE() << m.name() << ": expected a throw naming " << needle;
  } catch (const lbmv::util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << m.name() << ": " << e.what();
  }
}

TEST(SimdKernels, InvalidInputsThrowScalarDiagnostics) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto mechanisms = all_vector_mechanisms();
  for (const auto& m : mechanisms) {
    {
      Profile p = random_profile(100, 21);
      p.bids[63] = -1.0;
      expect_precondition(*m, 2.0, p, "bids must be positive and finite "
                                      "(agent 63)");
    }
    {
      Profile p = random_profile(100, 22);
      p.executions[99] = 0.0;  // scalar-tail lane
      expect_precondition(*m, 2.0, p, "execution values must be positive "
                                      "and finite (agent 99)");
    }
    {
      // Infinite and NaN inputs fail the shared check like non-positive ones.
      Profile p = random_profile(100, 24);
      p.executions[5] = kInf;
      expect_precondition(*m, 2.0, p, "(agent 5)");
      p = random_profile(100, 25);
      p.bids[98] = kInf;
      expect_precondition(*m, 2.0, p, "(agent 98)");
      p = random_profile(100, 26);
      p.bids[40] = std::numeric_limits<double>::quiet_NaN();
      expect_precondition(*m, 2.0, p, "(agent 40)");
      expect_precondition(*m, kInf, random_profile(8, 27),
                          "arrival rate must be positive and finite");
    }
    {
      // A subnormal bid overflows 1/b to infinity: the engine's finiteness
      // mask hands the round to the reference path, which dies in the
      // checked Allocation constructor.
      Profile p = random_profile(8, 23);
      p.bids[3] = 5e-324;
      expect_precondition(*m, 2.0, p, "finite");
    }
    {
      // Finite inputs whose factored totals overflow: (R/S)^2 is inf at
      // bids of 1e300 while every per-agent term is finite.  The engine
      // declines, and run_into must return the reference path's finite
      // outcome, not inf / -inf.
      const Profile p{{1e300, 1e300}, {1e300, 1e300}};
      const lbmv::model::LinearFamily family;
      MechanismOutcome fused_out, reference_out;
      RoundWorkspace fused_ws, reference_ws;
      EXPECT_FALSE(lbmv::core::run_linear_pr_vectorized(
          m->payment_rule(), 2.0, p.bids, p.executions, fused_out, fused_ws))
          << m->name();
      m->run_into(family, 2.0, p.bids, p.executions, fused_out, fused_ws);
      run_reference(*m, 2.0, p, reference_out, reference_ws);
      EXPECT_TRUE(std::isfinite(fused_out.actual_latency)) << m->name();
      for (const auto& a : fused_out.agents) {
        EXPECT_TRUE(std::isfinite(a.payment) && std::isfinite(a.utility))
            << m->name();
      }
      EXPECT_LE(max_outcome_rel_err(reference_out, fused_out), kUlpBound)
          << m->name();
    }
  }
}

// ---------------------------------------------------------------------------
// Backend plumbing.

TEST(SimdKernels, NonFiniteVerifiedCostThrowsNamingTheComputer) {
  // Finite inputs whose verified cost overflows: e_0 x_0^2 is inf at
  // e_0 = 1e307.  The fused engine declines, and the reference path must
  // name computer 0 instead of publishing C = inf, B = -inf, P = U = NaN.
  const Profile p{{1.0, 2.0, 3.0, 4.0}, {1e307, 2.0, 3.0, 4.0}};
  const auto mechanisms = all_vector_mechanisms();
  for (const auto& m : mechanisms) {
    MechanismOutcome out;
    RoundWorkspace ws;
    EXPECT_FALSE(lbmv::core::run_linear_pr_vectorized(
        m->payment_rule(), 20.0, p.bids, p.executions, out, ws))
        << m->name();
    expect_precondition(*m, 20.0, p,
                        "verified cost is not finite: computer 0");
    EXPECT_THROW(run_reference(*m, 20.0, p, out, ws),
                 lbmv::util::PreconditionError)
        << m->name();
  }

  // The workload family, through its own fused engine's decline.
  const lbmv::model::WorkloadFamily workload(0.5);
  const auto solver = std::make_shared<const lbmv::alloc::WorkloadAllocator>();
  const Profile q{{1.0, 2.0, 3.0, 4.0}, {1.0, 2.0, 1e308, 4.0}};
  const std::vector<std::shared_ptr<const Mechanism>> workload_mechanisms = {
      std::make_shared<const CompBonusMechanism>(solver),
      std::make_shared<const CompBonusMechanism>(solver,
                                                 CompensationBasis::kBid),
      std::make_shared<const VcgMechanism>(solver),
      std::make_shared<const NoPaymentMechanism>(solver)};
  for (const auto& m : workload_mechanisms) {
    MechanismOutcome out;
    RoundWorkspace ws;
    try {
      m->run_into(workload, 20.0, q.bids, q.executions, out, ws);
      ADD_FAILURE() << m->name() << ": expected a throw naming computer 2";
    } catch (const lbmv::util::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "verified cost is not finite: computer 2"),
                std::string::npos)
          << m->name() << ": " << e.what();
    }
  }
}

TEST(SimdKernels, BackendSelectorAndNameAreCoherent) {
  const char* name = lbmv::core::vector_backend_name();
  ASSERT_NE(name, nullptr);
  if (lbmv::util::simd::kAvx2) {
    EXPECT_STREQ(name, "avx2");
    EXPECT_EQ(lbmv::core::kernel_backend(),
              lbmv::core::KernelBackend::kVectorized);
  } else {
    EXPECT_STREQ(name, "scalar-4lane");
  }
}

TEST(SimdKernels, MaskPrimitivesMatchOrderedCompareSemantics) {
  namespace v = lbmv::util::simd;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const v::DVec a = v::load((const double[]){1.0, 2.0, 3.0, 4.0});
  const v::DVec b = v::load((const double[]){0.5, 2.0, nan, -1.0});
  // a > b holds on lanes 0 and 3 only: equal lanes and NaN lanes fail.
  v::DVec m = v::mask_greater(a, b);
  EXPECT_FALSE(v::mask_all_true(m));
  EXPECT_TRUE(v::mask_all_true(v::mask_all()));
  EXPECT_FALSE(v::mask_all_true(v::mask_and(v::mask_all(), m)));
  const v::DVec big = v::set1(100.0);
  EXPECT_TRUE(v::mask_all_true(v::mask_greater(big, a)));
  EXPECT_FALSE(v::mask_all_true(v::mask_greater(big, v::set1(nan))));
}

}  // namespace
