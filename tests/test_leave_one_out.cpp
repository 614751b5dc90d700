// Property tests for the batch leave-one-out payment engine: the PR
// closed form L_{-i} = R^2 / (S - 1/b_i) must match the generic
// re-solve-each-subsystem path, and the mechanisms rewired onto the batch
// API (comp-bonus, VCG) must reproduce the seed's per-agent recomputation
// — BidProfile::without(i) plus a fresh optimal_latency per agent, and
// VCG's quadratic others_cost loop — to 1e-12 relative error.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using lbmv::alloc::ConvexAllocator;
using lbmv::alloc::PRAllocator;
using lbmv::core::CompBonusMechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::LinearFamily;
using lbmv::model::SystemConfig;

std::vector<double> log_uniform_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return t;
}

void expect_rel_near(double actual, double expected, double rel_tol,
                     const char* what, std::size_t i) {
  const double scale = std::max(1.0, std::fabs(expected));
  EXPECT_NEAR(actual, expected, rel_tol * scale)
      << what << " diverges at agent " << i;
}

/// The seed's leave-one-out formulation: one profile copy and one full
/// re-solve per agent.  Kept here as the reference the batch engine must
/// reproduce.
std::vector<double> per_agent_leave_one_out(
    const lbmv::alloc::Allocator& allocator,
    const lbmv::model::LatencyFamily& family, const BidProfile& profile,
    double arrival_rate) {
  std::vector<double> out(profile.size());
  BidProfile scratch;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    profile.copy_without_into(i, scratch);
    out[i] = allocator.optimal_latency(family, scratch.bids, arrival_rate);
  }
  return out;
}

class LeaveOneOut : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LeaveOneOut, PrClosedFormMatchesPerAgentRecomputation) {
  const std::size_t n = GetParam();
  const LinearFamily family;
  const PRAllocator allocator;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    lbmv::util::Rng rng(seed * 977);
    const double rate = rng.uniform(1.0, 60.0);
    BidProfile profile;
    profile.bids = log_uniform_types(n, seed);
    profile.executions = profile.bids;
    const auto closed =
        allocator.leave_one_out_latencies(family, profile.bids, rate);
    const auto reference =
        per_agent_leave_one_out(allocator, family, profile, rate);
    ASSERT_EQ(closed.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      expect_rel_near(closed[i], reference[i], 1e-12, "L_{-i}", i);
    }
  }
}

TEST_P(LeaveOneOut, GenericScratchPathIsBitIdenticalToPerAgentCopies) {
  // The generic fallback feeds optimal_latency the same values in the same
  // order as BidProfile::without, so it is exactly — not just
  // approximately — the seed computation.  ConvexAllocator has no closed
  // form and always takes the fallback; its bisection is deterministic, so
  // even its numeric solves must agree bit for bit.  (Skipped at n = 256:
  // the numeric solver is O(seconds) there; the fallback's equivalence is
  // size-independent.)
  const std::size_t n = GetParam();
  if (n > 64) GTEST_SKIP() << "numeric reference too slow at n=" << n;
  const LinearFamily family;
  const ConvexAllocator allocator;
  BidProfile profile;
  profile.bids = log_uniform_types(n, 11);
  profile.executions = profile.bids;
  const auto batch =
      allocator.leave_one_out_latencies(family, profile.bids, 20.0);
  const auto reference =
      per_agent_leave_one_out(allocator, family, profile, 20.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], reference[i]) << "agent " << i;
  }
}

TEST_P(LeaveOneOut, CompBonusPaymentsMatchPerAgentRecomputation) {
  const std::size_t n = GetParam();
  const LinearFamily family;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    lbmv::util::Rng rng(seed * 31);
    const double rate = rng.uniform(1.0, 60.0);
    const SystemConfig config(log_uniform_types(n, seed), rate);
    // Random deviation so the test covers bid != execution profiles.
    const std::size_t deviator =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const BidProfile profile = BidProfile::deviate(
        config, deviator, rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0));

    const CompBonusMechanism mechanism;
    const MechanismOutcome outcome = mechanism.run(config, profile);

    // Seed algorithm: C_i + (L_{-i} - L) with L_{-i} recomputed per agent.
    const auto loo = per_agent_leave_one_out(mechanism.allocator(), family,
                                             profile, rate);
    for (std::size_t i = 0; i < n; ++i) {
      const double xi = outcome.allocation[i];
      const double expected_payment =
          profile.executions[i] * xi * xi + (loo[i] - outcome.actual_latency);
      expect_rel_near(outcome.agents[i].payment, expected_payment, 1e-12,
                      "comp-bonus payment", i);
    }
  }
}

TEST_P(LeaveOneOut, VcgPaymentsMatchQuadraticReference)
{
  const std::size_t n = GetParam();
  const LinearFamily family;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    lbmv::util::Rng rng(seed * 67);
    const double rate = rng.uniform(1.0, 60.0);
    const SystemConfig config(log_uniform_types(n, seed + 100), rate);
    const BidProfile profile = BidProfile::truthful(config);

    const VcgMechanism mechanism;
    const MechanismOutcome outcome = mechanism.run(config, profile);

    // Seed algorithm: per-agent leave-one-out plus the O(n) inner
    // others_cost sum that skipped agent i explicitly.
    const auto loo = per_agent_leave_one_out(mechanism.allocator(), family,
                                             profile, rate);
    for (std::size_t i = 0; i < n; ++i) {
      double others_cost = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const double xj = outcome.allocation[j];
        others_cost += profile.bids[j] * xj * xj;
      }
      expect_rel_near(outcome.agents[i].payment, loo[i] - others_cost, 1e-12,
                      "VCG payment", i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LeaveOneOut,
                         ::testing::Values<std::size_t>(2, 3, 17, 256));

TEST(LeaveOneOut, RequiresAtLeastTwoComputers) {
  const LinearFamily family;
  const PRAllocator allocator;
  const std::vector<double> one{1.0};
  EXPECT_THROW(
      (void)allocator.leave_one_out_latencies(family, one, 10.0),
      lbmv::util::PreconditionError);
  EXPECT_THROW((void)lbmv::alloc::pr_leave_one_out_latencies(one, 10.0),
               lbmv::util::PreconditionError);
}

TEST(LeaveOneOut, CatastrophicCancellationIsDiagnosedNotSilent) {
  // One agent a thousand billion times faster than the rest combined: the
  // closed form's denominator S - 1/t_i cancels to a value carrying no
  // correct digits.  The seed formulation silently returned that noise as
  // L_{-i}; the kernel now refuses with a diagnostic naming the agent.
  const std::vector<double> dominated{1e-12, 1.0};
  EXPECT_THROW((void)lbmv::alloc::pr_leave_one_out_latencies(dominated, 10.0),
               lbmv::util::PreconditionError);
  try {
    (void)lbmv::alloc::pr_leave_one_out_latencies(dominated, 10.0);
    FAIL() << "expected PreconditionError";
  } catch (const lbmv::util::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("numerically unresolvable"), std::string::npos)
        << what;
    EXPECT_NE(what.find("agent 0"), std::string::npos) << what;
  }
}

TEST(LeaveOneOut, ExactCancellationToInfinityIsAlsoCaught) {
  // 1/1e300 underflows against S = 1e300, so S - 1/t_0 is exactly zero and
  // the seed's "closed form" returned +infinity for agent 0's subsystem.
  const std::vector<double> degenerate{1e-300, 1e300};
  EXPECT_THROW(
      (void)lbmv::alloc::pr_leave_one_out_latencies(degenerate, 10.0),
      lbmv::util::PreconditionError);
}

TEST(LeaveOneOut, WideButResolvableSpreadStillSolves) {
  // Six orders of magnitude between fastest and slowest stays well inside
  // the relative-gap guard and must agree with the per-agent reference.
  const LinearFamily family;
  const PRAllocator allocator;
  BidProfile profile;
  profile.bids = {1e-3, 1.0, 1e3};
  profile.executions = profile.bids;
  const auto closed =
      lbmv::alloc::pr_leave_one_out_latencies(profile.bids, 5.0);
  const auto reference =
      per_agent_leave_one_out(allocator, family, profile, 5.0);
  ASSERT_EQ(closed.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(closed[i])) << "agent " << i;
    // The i = 0 subsystem loses ~3 digits to the (guarded) cancellation,
    // which still leaves 1e-9 relative agreement with the direct re-solve.
    expect_rel_near(closed[i], reference[i], 1e-9, "L_{-i}", i);
  }
}

// ---------------------------------------------------------------------------
// Incremental audit context vs full mechanism re-runs.

TEST(IncrementalAudit, MatchesFullRecomputationOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    lbmv::util::Rng rng(seed * 131);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const SystemConfig config(log_uniform_types(n, seed),
                              rng.uniform(1.0, 60.0));
    const CompBonusMechanism mechanism;
    const lbmv::core::TruthfulnessAuditor auditor(mechanism);
    lbmv::core::AuditOptions fast;
    fast.parallel = false;
    fast.keep_grid = true;
    lbmv::core::AuditOptions slow = fast;
    slow.incremental = false;
    const std::size_t agent =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const auto a = auditor.audit_agent(config, agent, fast);
    const auto b = auditor.audit_agent(config, agent, slow);
    const double scale = std::max(1.0, std::fabs(b.truthful_utility));
    EXPECT_NEAR(a.truthful_utility, b.truthful_utility, 1e-9 * scale);
    EXPECT_NEAR(a.max_gain, b.max_gain, 1e-9 * scale);
    ASSERT_EQ(a.grid.size(), b.grid.size());
    for (std::size_t k = 0; k < a.grid.size(); ++k) {
      EXPECT_NEAR(a.grid[k].utility, b.grid[k].utility,
                  1e-9 * std::max(1.0, std::fabs(b.grid[k].utility)))
          << "grid point " << k;
    }
  }
}

TEST(IncrementalAudit, ContextHonoursNonTruthfulOpponents) {
  // The fast path must freeze the *given* base profile, not the truthful
  // one — Theorem 3.1 quantifies over arbitrary opposing bids.
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  const CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  BidProfile base = BidProfile::truthful(config);
  base.bids[1] = 4.0;
  base.executions[1] = 4.0;
  lbmv::core::AuditOptions fast;
  lbmv::core::AuditOptions slow;
  slow.incremental = false;
  const auto a = auditor.audit_agent(config, 0, base, fast);
  const auto b = auditor.audit_agent(config, 0, base, slow);
  EXPECT_NEAR(a.truthful_utility, b.truthful_utility, 1e-9);
  EXPECT_NEAR(a.max_gain, b.max_gain, 1e-9);
  EXPECT_DOUBLE_EQ(a.best.bid_mult, b.best.bid_mult);
  EXPECT_DOUBLE_EQ(a.best.exec_mult, b.best.exec_mult);
}

TEST(IncrementalAudit, BidBasisVariantAlsoHasAFastPath) {
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  const CompBonusMechanism mechanism(lbmv::core::default_allocator(),
                                     lbmv::core::CompensationBasis::kBid);
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions fast;
  fast.parallel = false;
  lbmv::core::AuditOptions slow = fast;
  slow.incremental = false;
  const auto a = auditor.audit_agent(config, 1, fast);
  const auto b = auditor.audit_agent(config, 1, slow);
  EXPECT_NEAR(a.truthful_utility, b.truthful_utility, 1e-9);
  EXPECT_NEAR(a.max_gain, b.max_gain, 1e-9);
}

TEST(IncrementalAudit, NonLinearFamilyFallsBackToFullRuns) {
  // M/M/1 + ConvexAllocator has no closed-form context; make_profile_context
  // must return the reference context and the audit must still work
  // through run().
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.25, 1.0 / 3.0}, 4.0, family);
  const CompBonusMechanism mechanism(std::make_shared<ConvexAllocator>());
  EXPECT_FALSE(mechanism
                   .make_profile_context(config.family(),
                                         config.arrival_rate(),
                                         BidProfile::truthful(config))
                   ->closed_form());
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions options;
  options.bid_multipliers = {0.9, 1.0, 1.1};
  options.exec_multipliers = {1.0, 1.2};
  const auto report = auditor.audit_agent(config, 0, options);
  EXPECT_TRUE(report.truthful_dominant(1e-6));
}

TEST(IncrementalAudit, AuditAllParallelAgreesWithSequential) {
  const SystemConfig config(log_uniform_types(9, 5), 24.0);
  const CompBonusMechanism mechanism;
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions par;
  par.parallel = true;
  lbmv::core::AuditOptions seq;
  seq.parallel = false;
  const auto a = auditor.audit_all(config, par);
  const auto b = auditor.audit_all(config, seq);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].truthful_utility, b[i].truthful_utility);
    EXPECT_DOUBLE_EQ(a[i].max_gain, b[i].max_gain);
    EXPECT_EQ(a[i].agent, b[i].agent);
  }
}

// ---------------------------------------------------------------------------
// In-place copy helpers.

TEST(CopyWithoutInto, MatchesWithoutAndReusesCapacity) {
  BidProfile profile;
  profile.bids = {1.0, 2.0, 3.0, 4.0};
  profile.executions = {1.5, 2.5, 3.5, 4.5};
  BidProfile scratch;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    profile.copy_without_into(i, scratch);
    const BidProfile reference = profile.without(i);
    EXPECT_EQ(scratch.bids, reference.bids) << "removed " << i;
    EXPECT_EQ(scratch.executions, reference.executions) << "removed " << i;
  }
  EXPECT_THROW(profile.copy_without_into(7, scratch),
               lbmv::util::PreconditionError);
}

TEST(CopyWithoutInto, SystemConfigVariantMatchesWithout) {
  const SystemConfig config({1.0, 2.0, 3.0}, 6.0);
  std::vector<double> types;
  for (std::size_t i = 0; i < config.size(); ++i) {
    config.copy_without_into(i, types);
    const SystemConfig reference = config.without(i);
    ASSERT_EQ(types.size(), reference.size());
    for (std::size_t j = 0; j < types.size(); ++j) {
      EXPECT_EQ(types[j], reference.true_values()[j]);
    }
  }
  EXPECT_THROW(config.copy_without_into(3, types),
               lbmv::util::PreconditionError);
}

}  // namespace
