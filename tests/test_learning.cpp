// Tests for the bandit learners: truth-telling must be *discoverable* from
// utility feedback alone under the verified mechanism.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/strategy/learning.h"
#include "lbmv/util/error.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::NoPaymentMechanism;
using lbmv::model::SystemConfig;
using lbmv::strategy::LearningOptions;
using lbmv::strategy::run_learning;

const SystemConfig& test_config() {
  static const SystemConfig config({1.0, 1.5, 2.0, 5.0, 8.0}, 15.0);
  return config;
}

TEST(Learning, SingleLearnerAgainstTruthfulOpponentsFindsTruth) {
  // Against truthful opponents truth is exactly dominant, so the bandit's
  // greedy arm must land on (1, 1) and the greedy profile on the optimum.
  CompBonusMechanism mechanism;
  LearningOptions options;
  options.single_learner = 0;
  options.rounds = 800;
  const auto result = run_learning(mechanism, test_config(), options);
  EXPECT_DOUBLE_EQ(result.final_bid_mult[0], 1.0);
  EXPECT_DOUBLE_EQ(result.final_exec_mult[0], 1.0);
  EXPECT_DOUBLE_EQ(result.truthful_fraction, 1.0);
  const double optimal = lbmv::alloc::pr_optimal_latency(
      std::vector<double>(test_config().true_values().begin(),
                          test_config().true_values().end()),
      test_config().arrival_rate());
  EXPECT_NEAR(result.final_greedy_latency, optimal, 1e-9);
}

TEST(Learning, CoLearnersAllDiscoverFullCapacityExecution) {
  // With everyone learning simultaneously, opponents' exploration noise
  // blurs the bid landscape (the scope-boundary effect), but verification
  // makes slack execution unambiguously bad: every learner's greedy arm
  // has execution multiplier 1.
  CompBonusMechanism mechanism;
  LearningOptions options;
  options.rounds = 1500;
  const auto result = run_learning(mechanism, test_config(), options);
  for (std::size_t i = 0; i < test_config().size(); ++i) {
    EXPECT_DOUBLE_EQ(result.final_exec_mult[i], 1.0) << "agent " << i;
  }
  // ... and the greedy profile stays within a few percent of the optimum.
  const double optimal = lbmv::alloc::pr_optimal_latency(
      std::vector<double>(test_config().true_values().begin(),
                          test_config().true_values().end()),
      test_config().arrival_rate());
  EXPECT_LT(result.final_greedy_latency, 1.10 * optimal);
}

TEST(Learning, NoPaymentLearnersRaceToTheBidCeiling) {
  // Without payments the learners discover bid inflation; every greedy arm
  // is the largest bid multiplier on the grid.  (Note: if *everyone* hits
  // the same cap, the PR allocation is unchanged — the race has no interior
  // equilibrium, which is the collapse the paper's introduction describes.)
  NoPaymentMechanism mechanism;
  LearningOptions options;
  options.rounds = 1500;
  const auto result = run_learning(mechanism, test_config(), options);
  for (std::size_t i = 0; i < test_config().size(); ++i) {
    EXPECT_DOUBLE_EQ(result.final_bid_mult[i], 3.0) << "agent " << i;
  }
  EXPECT_DOUBLE_EQ(result.truthful_fraction, 0.0);
}

TEST(Learning, TraceHasOneEntryPerRound) {
  CompBonusMechanism mechanism;
  LearningOptions options;
  options.rounds = 50;
  const auto result = run_learning(mechanism, test_config(), options);
  EXPECT_EQ(result.latency_trace.size(), 50u);
  for (double l : result.latency_trace) EXPECT_GT(l, 0.0);
}

TEST(Learning, DeterministicForFixedSeed) {
  CompBonusMechanism mechanism;
  LearningOptions options;
  options.rounds = 120;
  const auto a = run_learning(mechanism, test_config(), options);
  const auto b = run_learning(mechanism, test_config(), options);
  EXPECT_EQ(a.latency_trace, b.latency_trace);
  EXPECT_EQ(a.final_bid_mult, b.final_bid_mult);
}

TEST(Learning, ValidatesOptions) {
  CompBonusMechanism mechanism;
  LearningOptions bad;
  bad.exec_arms = {0.5};
  EXPECT_THROW((void)run_learning(mechanism, test_config(), bad),
               lbmv::util::PreconditionError);
  bad = LearningOptions{};
  bad.rounds = 0;
  EXPECT_THROW((void)run_learning(mechanism, test_config(), bad),
               lbmv::util::PreconditionError);
  bad = LearningOptions{};
  bad.single_learner = 99;
  EXPECT_THROW((void)run_learning(mechanism, test_config(), bad),
               lbmv::util::PreconditionError);
  bad = LearningOptions{};
  bad.bid_arms = {-1.0};
  EXPECT_THROW((void)run_learning(mechanism, test_config(), bad),
               lbmv::util::PreconditionError);
}

TEST(Learning, ValidatesNonFiniteOptions) {
  CompBonusMechanism mechanism;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LearningOptions bad;
  bad.bid_arms = {1.0, nan};
  EXPECT_THROW((void)run_learning(mechanism, test_config(), bad),
               lbmv::util::PreconditionError);
  bad = LearningOptions{};
  bad.epsilon = nan;
  EXPECT_THROW((void)run_learning(mechanism, test_config(), bad),
               lbmv::util::PreconditionError);
  bad = LearningOptions{};
  bad.epsilon_decay = 0.0;
  EXPECT_THROW((void)run_learning(mechanism, test_config(), bad),
               lbmv::util::PreconditionError);
  bad = LearningOptions{};
  bad.epsilon_decay = 1.5;
  EXPECT_THROW((void)run_learning(mechanism, test_config(), bad),
               lbmv::util::PreconditionError);
}

TEST(Learning, ReplicatedEnsembleIsThreadCountInvariant) {
  // Replication r derives its seed from Rng(options.seed).split(r + 1) and
  // results merge in replication order, so the ensemble is bit-identical
  // across pool sizes.
  CompBonusMechanism mechanism;
  LearningOptions options;
  options.rounds = 80;
  const std::size_t replications = 6;
  lbmv::util::ThreadPool one(1);
  const auto baseline = lbmv::strategy::run_learning_replicated(
      mechanism, test_config(), options, replications, &one);
  ASSERT_EQ(baseline.replications.size(), replications);
  for (std::size_t threads : {2ul, 8ul}) {
    lbmv::util::ThreadPool pool(threads);
    const auto ensemble = lbmv::strategy::run_learning_replicated(
        mechanism, test_config(), options, replications, &pool);
    ASSERT_EQ(ensemble.replications.size(), replications);
    for (std::size_t r = 0; r < replications; ++r) {
      EXPECT_EQ(ensemble.replications[r].latency_trace,
                baseline.replications[r].latency_trace)
          << "threads=" << threads << " rep=" << r;
      EXPECT_EQ(ensemble.replications[r].final_bid_mult,
                baseline.replications[r].final_bid_mult);
      EXPECT_EQ(ensemble.replications[r].final_exec_mult,
                baseline.replications[r].final_exec_mult);
    }
    EXPECT_EQ(ensemble.mean_truthful_fraction(),
              baseline.mean_truthful_fraction());
    EXPECT_EQ(ensemble.mean_greedy_latency(), baseline.mean_greedy_latency());
  }
}

TEST(Learning, ReplicationsDifferFromEachOther) {
  // Distinct seed streams: the replications are not copies of one run.
  CompBonusMechanism mechanism;
  LearningOptions options;
  options.rounds = 80;
  lbmv::util::ThreadPool pool(2);
  const auto ensemble = lbmv::strategy::run_learning_replicated(
      mechanism, test_config(), options, 4, &pool);
  EXPECT_NE(ensemble.replications[0].latency_trace,
            ensemble.replications[1].latency_trace);
}

}  // namespace
