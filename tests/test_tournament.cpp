// Tests for strategy tournaments.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/strategy/tournament.h"
#include "lbmv/util/error.h"

namespace {

using namespace lbmv::strategy;
using lbmv::core::CompBonusMechanism;
using lbmv::core::NoPaymentMechanism;

std::vector<std::unique_ptr<Strategy>> standard_lineup() {
  std::vector<std::unique_ptr<Strategy>> v;
  v.push_back(std::make_unique<TruthfulStrategy>());
  v.push_back(std::make_unique<ScalingStrategy>(3.0, 1.0));   // overbidder
  v.push_back(std::make_unique<ScalingStrategy>(0.5, 1.0));   // underbidder
  v.push_back(std::make_unique<SlackExecutionStrategy>(2.0)); // slacker
  return v;
}

std::vector<const Strategy*> pointers(
    const std::vector<std::unique_ptr<Strategy>>& owned) {
  std::vector<const Strategy*> v;
  for (const auto& s : owned) v.push_back(s.get());
  return v;
}

TEST(Tournament, TruthfulHasZeroRegretUnderCompBonus) {
  // A *consistent* population (every agent executes at its bid): here the
  // dominant-strategy guarantee applies sample-by-sample, so the truthful
  // strategy has exactly zero regret and every lie costs money.
  CompBonusMechanism mechanism;
  std::vector<std::unique_ptr<Strategy>> owned;
  owned.push_back(std::make_unique<TruthfulStrategy>());
  owned.push_back(std::make_unique<ScalingStrategy>(3.0, 3.0));
  owned.push_back(std::make_unique<ScalingStrategy>(1.5, 1.5));
  TournamentOptions options;
  options.instances = 40;
  options.agents = 9;
  const auto scores = run_tournament(mechanism, pointers(owned), options);
  ASSERT_EQ(scores.size(), 3u);
  EXPECT_EQ(scores[0].name, "truthful");
  EXPECT_NEAR(scores[0].mean_regret, 0.0, 1e-9);
  for (std::size_t s = 1; s < scores.size(); ++s) {
    EXPECT_GT(scores[s].mean_regret, 0.0) << scores[s].name;
  }
}

TEST(Tournament, InconsistentOpponentsCanProduceNegativeRegret) {
  // Scope boundary, matching test_audit: with *inconsistent* participants
  // in the population (underbidders, slackers — whose execution cannot
  // match their bid), truth is no longer a per-sample best response, and
  // some lying strategy can show negative mean regret.  This documents why
  // the theorem's "for every bids of the other agents" needs the
  // consistency qualifier.
  CompBonusMechanism mechanism;
  const auto owned = standard_lineup();
  TournamentOptions options;
  options.instances = 40;
  const auto scores = run_tournament(mechanism, pointers(owned), options);
  double min_regret = scores[0].mean_regret;
  for (const auto& score : scores) {
    min_regret = std::min(min_regret, score.mean_regret);
  }
  EXPECT_LT(min_regret, 0.0);
}

TEST(Tournament, OverbiddingHasNegativeRegretWithoutPayments) {
  // Under the classical protocol the overbidder *gains* from lying, which
  // shows up as negative regret.
  NoPaymentMechanism mechanism;
  const auto owned = standard_lineup();
  TournamentOptions options;
  options.instances = 40;
  const auto scores = run_tournament(mechanism, pointers(owned), options);
  EXPECT_LT(scores[1].mean_regret, 0.0);  // scaling(bid=3x)
}

TEST(Tournament, SampleCountsMatchAssignment) {
  CompBonusMechanism mechanism;
  const auto owned = standard_lineup();
  TournamentOptions options;
  options.instances = 10;
  options.agents = 8;  // 2 agents per strategy per instance
  const auto scores = run_tournament(mechanism, pointers(owned), options);
  for (const auto& score : scores) {
    EXPECT_EQ(score.samples, 20u);
  }
}

TEST(Tournament, DeterministicForFixedSeed) {
  CompBonusMechanism mechanism;
  const auto owned = standard_lineup();
  TournamentOptions options;
  options.instances = 10;
  const auto a = run_tournament(mechanism, pointers(owned), options);
  const auto b = run_tournament(mechanism, pointers(owned), options);
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_DOUBLE_EQ(a[s].mean_utility, b[s].mean_utility);
    EXPECT_DOUBLE_EQ(a[s].mean_regret, b[s].mean_regret);
  }
}

TEST(Tournament, ValidatesOptions) {
  CompBonusMechanism mechanism;
  const auto owned = standard_lineup();
  TournamentOptions bad;
  bad.agents = 1;
  EXPECT_THROW((void)run_tournament(mechanism, pointers(owned), bad),
               lbmv::util::PreconditionError);
  bad = TournamentOptions{};
  bad.instances = 0;
  EXPECT_THROW((void)run_tournament(mechanism, pointers(owned), bad),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)run_tournament(mechanism, {}, TournamentOptions{}),
               lbmv::util::PreconditionError);
  bad = TournamentOptions{};
  bad.type_lo = 0.0;
  EXPECT_THROW((void)run_tournament(mechanism, pointers(owned), bad),
               lbmv::util::PreconditionError);
  bad = TournamentOptions{};
  bad.type_hi = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)run_tournament(mechanism, pointers(owned), bad),
               lbmv::util::PreconditionError);
  bad = TournamentOptions{};
  bad.arrival_rate = -1.0;
  EXPECT_THROW((void)run_tournament(mechanism, pointers(owned), bad),
               lbmv::util::PreconditionError);
}

TEST(Tournament, ThreadCountInvariant) {
  // Instance k draws from seed stream split(k) and the merge walks
  // (instance, agent) in order, so scores are bit-identical whether the
  // instances run serially (a one-thread pool) or on any pool size.
  CompBonusMechanism mechanism;
  const auto owned = standard_lineup();
  lbmv::util::ThreadPool one(1);
  TournamentOptions serial;
  serial.instances = 24;
  serial.pool = &one;
  const auto baseline = run_tournament(mechanism, pointers(owned), serial);
  for (std::size_t threads : {2ul, 8ul}) {
    lbmv::util::ThreadPool pool(threads);
    TournamentOptions options;
    options.instances = 24;
    options.pool = &pool;
    const auto scores = run_tournament(mechanism, pointers(owned), options);
    ASSERT_EQ(scores.size(), baseline.size());
    for (std::size_t s = 0; s < scores.size(); ++s) {
      EXPECT_EQ(scores[s].mean_utility, baseline[s].mean_utility)
          << "threads=" << threads << " strategy=" << scores[s].name;
      EXPECT_EQ(scores[s].mean_regret, baseline[s].mean_regret)
          << "threads=" << threads << " strategy=" << scores[s].name;
      EXPECT_EQ(scores[s].samples, baseline[s].samples);
    }
  }
}

}  // namespace
