// Differential tests for the O(1) single-deviation game engine: the
// closed-form DeviationEvaluator path must agree with the naive re-run
// path to 1e-9 (relative) for every shipped payment rule, across random
// profiles, boundary bids at the search-interval edges, execution
// multipliers > 1, and long committed-deviation sequences (which exercise
// the periodic S/W rebuild).  The generic fallback (no closed form) must
// keep working through Mechanism::run on the shared scratch buffer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/strategy/deviation.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;
using lbmv::strategy::DeviationEvaluator;

std::vector<double> log_uniform_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return t;
}

/// Random non-truthful profile: every agent's bid and execution perturbed.
BidProfile random_profile(const SystemConfig& config, lbmv::util::Rng& rng) {
  BidProfile profile = BidProfile::truthful(config);
  for (std::size_t i = 0; i < config.size(); ++i) {
    profile.bids[i] *= std::exp(rng.uniform(std::log(0.5), std::log(2.0)));
    profile.executions[i] *= rng.uniform(1.0, 2.5);
  }
  return profile;
}

/// All four closed-form mechanisms, index-addressable for parameterised
/// sweeps.
std::unique_ptr<Mechanism> make_mechanism(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<CompBonusMechanism>();
    case 1:
      return std::make_unique<CompBonusMechanism>(
          lbmv::core::default_allocator(), CompensationBasis::kBid);
    case 2:
      return std::make_unique<VcgMechanism>();
    default:
      return std::make_unique<NoPaymentMechanism>();
  }
}

void expect_rel_near(double actual, double expected, double rel_tol,
                     const char* what) {
  const double scale = std::max(1.0, std::fabs(expected));
  EXPECT_NEAR(actual, expected, rel_tol * scale) << what;
}

class DeviationDifferential : public ::testing::TestWithParam<int> {};

TEST_P(DeviationDifferential, IncrementalMatchesNaiveOnRandomDeviations) {
  const auto mechanism = make_mechanism(GetParam());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    lbmv::util::Rng rng(seed * 193);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 14));
    const SystemConfig config(log_uniform_types(n, seed), rng.uniform(2.0, 50.0));
    const BidProfile profile = random_profile(config, rng);

    const DeviationEvaluator fast(*mechanism, config, profile);
    const DeviationEvaluator naive(*mechanism, config, profile,
                                   DeviationEvaluator::Mode::kNaive);
    ASSERT_TRUE(fast.incremental());
    ASSERT_FALSE(naive.incremental());

    for (int trial = 0; trial < 24; ++trial) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const double t = config.true_value(i);
      const double bid =
          t * std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
      const double exec = t * rng.uniform(1.0, 3.0);
      expect_rel_near(fast.utility(i, bid, exec), naive.utility(i, bid, exec),
                      1e-9, mechanism->name().c_str());
    }
  }
}

TEST_P(DeviationDifferential, IncrementalMatchesNaiveAtBoundaryBids) {
  // The best-response scan hits the extreme ends of the bid interval and
  // execution multipliers well above 1; the closed form must stay accurate
  // exactly there, where S' is most distorted.
  const auto mechanism = make_mechanism(GetParam());
  const SystemConfig config(log_uniform_types(6, 17), 30.0);
  const BidProfile profile = BidProfile::truthful(config);
  const DeviationEvaluator fast(*mechanism, config, profile);
  const DeviationEvaluator naive(*mechanism, config, profile,
                                 DeviationEvaluator::Mode::kNaive);
  const double lo_mult = 0.05;
  const double hi_mult = 20.0;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const double t = config.true_value(i);
    for (double bid_mult : {lo_mult, 1.0, hi_mult}) {
      for (double exec_mult : {1.0, 1.25, 2.0, 3.0}) {
        expect_rel_near(fast.utility(i, bid_mult * t, exec_mult * t),
                        naive.utility(i, bid_mult * t, exec_mult * t), 1e-9,
                        mechanism->name().c_str());
      }
    }
  }
}

TEST_P(DeviationDifferential, CommitSequenceStaysInAgreement) {
  // Hundreds of committed deviations at small n: the O(1) S/W deltas plus
  // the periodic rebuild must track the from-scratch state to 1e-9 at every
  // step, not just at the end.
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(4242);
  const SystemConfig config(log_uniform_types(5, 23), 18.0);
  DeviationEvaluator fast(*mechanism, config);
  DeviationEvaluator naive(*mechanism, config,
                           DeviationEvaluator::Mode::kNaive);
  for (int step = 0; step < 400; ++step) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.size()) - 1));
    const double t = config.true_value(i);
    const double bid = t * std::exp(rng.uniform(std::log(0.2), std::log(5.0)));
    const double exec = t * rng.uniform(1.0, 2.0);
    fast.commit(i, bid, exec);
    naive.commit(i, bid, exec);
    if (step % 20 == 0) {
      expect_rel_near(fast.actual_latency(), naive.actual_latency(), 1e-9,
                      "actual latency after commits");
      const auto probe = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(config.size()) - 1));
      expect_rel_near(fast.utility(probe, t, t), naive.utility(probe, t, t),
                      1e-9, "utility after commits");
    }
  }
  ASSERT_EQ(fast.profile().bids, naive.profile().bids);
  ASSERT_EQ(fast.profile().executions, naive.profile().executions);
}

TEST_P(DeviationDifferential, OutcomeIntoMatchesMechanismRun) {
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(77);
  const SystemConfig config(log_uniform_types(9, 31), 25.0);
  const BidProfile profile = random_profile(config, rng);
  const DeviationEvaluator evaluator(*mechanism, config, profile);
  ASSERT_TRUE(evaluator.incremental());

  MechanismOutcome closed;
  evaluator.outcome_into(closed);
  const MechanismOutcome reference = mechanism->run(config, profile);

  expect_rel_near(closed.actual_latency, reference.actual_latency, 1e-9,
                  "actual latency");
  expect_rel_near(closed.reported_latency, reference.reported_latency, 1e-9,
                  "reported latency");
  ASSERT_EQ(closed.agents.size(), reference.agents.size());
  for (std::size_t i = 0; i < closed.agents.size(); ++i) {
    expect_rel_near(closed.allocation[i], reference.allocation[i], 1e-12,
                    "allocation");
    expect_rel_near(closed.agents[i].compensation,
                    reference.agents[i].compensation, 1e-9, "compensation");
    expect_rel_near(closed.agents[i].bonus, reference.agents[i].bonus, 1e-9,
                    "bonus");
    expect_rel_near(closed.agents[i].payment, reference.agents[i].payment,
                    1e-9, "payment");
    expect_rel_near(closed.agents[i].valuation, reference.agents[i].valuation,
                    1e-9, "valuation");
    expect_rel_near(closed.agents[i].utility, reference.agents[i].utility,
                    1e-9, "utility");
  }
}

TEST_P(DeviationDifferential, UtilityAtCommittedProfileMatchesOutcome) {
  // utility(i, b_i, e_i) at the committed entries must equal the outcome's
  // per-agent utility — this identity is what makes the tournament's
  // truthful-counterfactual regret exactly zero.
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(91);
  const SystemConfig config(log_uniform_types(7, 41), 16.0);
  const BidProfile profile = random_profile(config, rng);
  const DeviationEvaluator evaluator(*mechanism, config, profile);
  MechanismOutcome outcome;
  evaluator.outcome_into(outcome);
  for (std::size_t i = 0; i < config.size(); ++i) {
    expect_rel_near(
        evaluator.utility(i, profile.bids[i], profile.executions[i]),
        outcome.agents[i].utility, 1e-9, "self-consistency");
  }
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, DeviationDifferential,
                         ::testing::Values(0, 1, 2, 3));

// ---------------------------------------------------------------------------
// Audit fast path unification: VCG and no-payment now share the closed-form
// context through the Mechanism base class.

TEST(ProfileContext, VcgAndNoPaymentGainAuditFastPaths) {
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  const BidProfile profile = BidProfile::truthful(config);
  const VcgMechanism vcg;
  const NoPaymentMechanism none;
  EXPECT_NE(vcg.make_profile_context(config.family(), config.arrival_rate(),
                                     profile),
            nullptr);
  EXPECT_NE(none.make_profile_context(config.family(), config.arrival_rate(),
                                      profile),
            nullptr);
}

TEST(ProfileContext, AgentContextAgreesWithFullRuns) {
  lbmv::util::Rng rng(55);
  const SystemConfig config(log_uniform_types(6, 3), 21.0);
  const BidProfile base = random_profile(config, rng);
  for (int kind = 0; kind < 4; ++kind) {
    const auto mechanism = make_mechanism(kind);
    const auto context = mechanism->make_profile_context(
        config.family(), config.arrival_rate(), base);
    ASSERT_NE(context, nullptr) << mechanism->name();
    for (std::size_t agent = 0; agent < config.size(); ++agent) {
      for (double bid_mult : {0.3, 1.0, 4.0}) {
        for (double exec_mult : {1.0, 1.7}) {
          BidProfile candidate = base;
          candidate.bids[agent] = bid_mult * config.true_value(agent);
          candidate.executions[agent] = exec_mult * config.true_value(agent);
          const double reference =
              mechanism->run(config, candidate).agents[agent].utility;
          expect_rel_near(context->utility(agent, candidate.bids[agent],
                                           candidate.executions[agent]),
                          reference, 1e-9, mechanism->name().c_str());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Generic fallback path.

TEST(DeviationFallback, NonLinearFamilyUsesScratchRuns) {
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.25, 1.0 / 3.0}, 4.0, family);
  const CompBonusMechanism mechanism(
      std::make_shared<lbmv::alloc::ConvexAllocator>());
  const BidProfile profile = BidProfile::truthful(config);
  const DeviationEvaluator evaluator(mechanism, config, profile);
  EXPECT_FALSE(evaluator.incremental());

  // Reference: the old per-call profile copy.
  BidProfile candidate = profile;
  candidate.bids[1] = 0.3;
  candidate.executions[1] = 0.3;
  const double reference =
      mechanism.run(config, candidate).agents[1].utility;
  EXPECT_DOUBLE_EQ(evaluator.utility(1, 0.3, 0.3), reference);

  // The scratch buffer must be restored after the query: evaluating a
  // different agent right away sees the original entries for agent 1.
  EXPECT_EQ(evaluator.profile().bids, profile.bids);
  EXPECT_EQ(evaluator.profile().executions, profile.executions);
  const double untouched =
      mechanism.run(config, profile).agents[0].utility;
  EXPECT_DOUBLE_EQ(
      evaluator.utility(0, profile.bids[0], profile.executions[0]), untouched);
}

TEST(DeviationFallback, CommitsApplyToSubsequentQueries) {
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.25, 1.0 / 3.0}, 4.0, family);
  const CompBonusMechanism mechanism(
      std::make_shared<lbmv::alloc::ConvexAllocator>());
  DeviationEvaluator evaluator(mechanism, config);
  evaluator.commit(0, 0.24, 0.24);
  BidProfile expected = BidProfile::truthful(config);
  expected.bids[0] = 0.24;
  expected.executions[0] = 0.24;
  const double reference =
      mechanism.run(config, expected).agents[2].utility;
  EXPECT_DOUBLE_EQ(
      evaluator.utility(2, expected.bids[2], expected.executions[2]),
      reference);
  MechanismOutcome outcome;
  evaluator.outcome_into(outcome);
  EXPECT_DOUBLE_EQ(outcome.actual_latency,
                   mechanism.run(config, expected).actual_latency);
}

// ---------------------------------------------------------------------------
// Argument validation.

TEST(DeviationValidation, RejectsBadConstructionAndQueries) {
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  const CompBonusMechanism mechanism;
  BidProfile short_profile;
  short_profile.bids = {1.0, 2.0};
  short_profile.executions = {1.0, 2.0};
  EXPECT_THROW(DeviationEvaluator(mechanism, config, short_profile),
               lbmv::util::PreconditionError);

  DeviationEvaluator evaluator(mechanism, config);
  EXPECT_THROW((void)evaluator.utility(3, 1.0, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)evaluator.utility(0, -1.0, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)evaluator.utility(0, 1.0, 0.0),
               lbmv::util::PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)evaluator.utility(0, inf, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW(evaluator.commit(0, 1.0, inf),
               lbmv::util::PreconditionError);
  EXPECT_THROW(evaluator.commit(5, 1.0, 1.0),
               lbmv::util::PreconditionError);
}

}  // namespace
