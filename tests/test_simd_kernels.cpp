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
// bit-for-bit at equal S.  The block grid and every reduction tree are fixed, so outcomes are
// bit-identical across shard and thread counts; invalid inputs throw the
// shared input check's diagnostics, and finite inputs never publish a
// non-finite outcome.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
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
#include "lbmv/util/thread_pool.h"

namespace {

using lbmv::core::ArcherTardosMechanism;
using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::RoundOptions;
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
               MechanismOutcome& out, RoundWorkspace& ws,
               const RoundOptions& options = {}) {
  lbmv::core::FusedRoundStats stats;
  EXPECT_TRUE(lbmv::core::run_linear_pr_vectorized(
      m.payment_rule(), rate, p.bids, p.executions, out, ws, options, stats))
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
  // 1/b_i and push the leave-one-out denominators toward the guard.
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
// Shard invariance: the fixed block grid and block-order reduction make the
// outcome bit-identical for ANY shard count on ANY pool.

TEST(SimdKernels, ShardCountNeverChangesBits) {
  // Spans four blocks (kShardBlock = 4096) with a ragged final block.
  const std::size_t n = 3 * lbmv::core::kShardBlock + 1234;
  const Profile p = random_profile(n, 11);
  const auto mechanisms = all_vector_mechanisms();
  lbmv::util::ThreadPool two(2), four(4);
  for (const auto& m : mechanisms) {
    MechanismOutcome serial_out;
    RoundWorkspace serial_ws;
    run_fused(*m, 7.0, p, serial_out, serial_ws, RoundOptions{1, nullptr});
    const struct {
      std::size_t shards;
      lbmv::util::ThreadPool* pool;
    } fanouts[] = {{2, &two}, {8, &four}, {0, &four}};
    for (const auto& f : fanouts) {
      MechanismOutcome out;
      RoundWorkspace ws;
      run_fused(*m, 7.0, p, out, ws, RoundOptions{f.shards, f.pool});
      ASSERT_EQ(out.agents.size(), serial_out.agents.size());
      EXPECT_EQ(0, std::memcmp(out.agents.data(), serial_out.agents.data(),
                               n * sizeof(lbmv::core::AgentOutcome)))
          << m->name() << " shards=" << f.shards;
      EXPECT_EQ(0, std::memcmp(out.allocation.rates().data(),
                               serial_out.allocation.rates().data(),
                               n * sizeof(double)))
          << m->name() << " shards=" << f.shards;
      EXPECT_EQ(out.actual_latency, serial_out.actual_latency) << m->name();
      EXPECT_EQ(out.reported_latency, serial_out.reported_latency)
          << m->name();
    }
  }
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
      // Leave-one-out and Archer–Tardos guards through run_into: agent 0 is
      // so much faster than the rest that S - 1/b_0 cancels.  At {1e-12, 1}
      // every value stays finite, so the vectorized engine raises the
      // guard itself (a failed guard is not a decline); at {1e-20, 1e20}
      // S - 1/b_0 is exactly 0, the fused result is non-finite, and the
      // reference path raises it.
      const Profile cancelling{{1e-12, 1.0}, {1e-12, 1.0}};
      const Profile vanishing{{1e-20, 1e20}, {1e-20, 1e20}};
      switch (m->payment_rule()) {
        case lbmv::core::PaymentRule::kCompBonusExecution:
        case lbmv::core::PaymentRule::kCompBonusBid:
        case lbmv::core::PaymentRule::kVcg: {
          for (const Profile* p : {&cancelling, &vanishing}) {
            expect_precondition(*m, 2.0, *p,
                                "leave-one-out optimum is numerically "
                                "unresolvable");
            expect_precondition(*m, 2.0, *p, "(agent 0 of 2)");
          }
          MechanismOutcome out;
          RoundWorkspace ws;
          lbmv::core::FusedRoundStats stats;
          EXPECT_THROW((void)lbmv::core::run_linear_pr_vectorized(
                           m->payment_rule(), 2.0, cancelling.bids,
                           cancelling.executions, out, ws, RoundOptions{},
                           stats),
                       lbmv::util::PreconditionError)
              << m->name();
          break;
        }
        case lbmv::core::PaymentRule::kArcherTardos:
          expect_precondition(*m, 2.0, vanishing,
                              "the other agents must contribute positive "
                              "capacity (agent 0)");
          break;
        case lbmv::core::PaymentRule::kNoPayment:
          break;
      }
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
      lbmv::core::FusedRoundStats stats;
      EXPECT_FALSE(lbmv::core::run_linear_pr_vectorized(
          m->payment_rule(), 2.0, p.bids, p.executions, fused_out, fused_ws,
          RoundOptions{}, stats))
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
    lbmv::core::FusedRoundStats stats;
    EXPECT_FALSE(lbmv::core::run_linear_pr_vectorized(
        m->payment_rule(), 20.0, p.bids, p.executions, out, ws,
        RoundOptions{}, stats))
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
