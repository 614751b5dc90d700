// Unit tests for agent strategies.

#include <gtest/gtest.h>

#include <vector>

#include "lbmv/strategy/strategy.h"
#include "lbmv/util/error.h"

namespace {

using namespace lbmv::strategy;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;
using lbmv::util::Rng;

TEST(TruthfulStrategy, ReportsAndExecutesTruth) {
  TruthfulStrategy s;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(s.bid(2.5, rng), 2.5);
  EXPECT_DOUBLE_EQ(s.execution(2.5, 2.5, rng), 2.5);
  EXPECT_EQ(s.name(), "truthful");
}

TEST(ScalingStrategy, AppliesMultipliers) {
  ScalingStrategy s(3.0, 2.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(s.bid(1.5, rng), 4.5);
  EXPECT_DOUBLE_EQ(s.execution(1.5, 4.5, rng), 3.0);
  EXPECT_NE(s.name().find("scaling"), std::string::npos);
}

TEST(ScalingStrategy, ClampsExecutionToCapacity) {
  // exec_mult below 1 would mean running faster than physically possible;
  // the strategy clamps it to 1.
  ScalingStrategy s(0.5, 0.5);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(s.execution(2.0, 1.0, rng), 2.0);
}

TEST(ScalingStrategy, RejectsNonPositiveMultipliers) {
  EXPECT_THROW(ScalingStrategy(0.0, 1.0), lbmv::util::PreconditionError);
  EXPECT_THROW(ScalingStrategy(1.0, -1.0), lbmv::util::PreconditionError);
}

TEST(RandomBidStrategy, StaysInsideRangeAndExecutesTruthfully) {
  RandomBidStrategy s(0.5, 2.0);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double b = s.bid(4.0, rng);
    EXPECT_GE(b, 2.0 - 1e-12);
    EXPECT_LE(b, 8.0 + 1e-12);
  }
  EXPECT_DOUBLE_EQ(s.execution(4.0, 5.0, rng), 4.0);
  EXPECT_THROW(RandomBidStrategy(2.0, 1.0), lbmv::util::PreconditionError);
}

TEST(SlackExecutionStrategy, BidsTruthSlacksExecution) {
  SlackExecutionStrategy s(2.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(s.bid(3.0, rng), 3.0);
  EXPECT_DOUBLE_EQ(s.execution(3.0, 3.0, rng), 6.0);
  EXPECT_THROW(SlackExecutionStrategy(0.9), lbmv::util::PreconditionError);
}

TEST(ApplyStrategies, BuildsProfileAgentByAgent) {
  const SystemConfig config({1.0, 2.0, 4.0}, 10.0);
  TruthfulStrategy truthful;
  ScalingStrategy liar(3.0, 1.0);
  SlackExecutionStrategy slacker(2.0);
  std::vector<const Strategy*> assigned{&truthful, &liar, &slacker};
  Rng rng(5);
  const BidProfile profile = apply_strategies(config, assigned, rng);
  EXPECT_DOUBLE_EQ(profile.bids[0], 1.0);
  EXPECT_DOUBLE_EQ(profile.bids[1], 6.0);
  EXPECT_DOUBLE_EQ(profile.executions[1], 2.0);
  EXPECT_DOUBLE_EQ(profile.bids[2], 4.0);
  EXPECT_DOUBLE_EQ(profile.executions[2], 8.0);
  EXPECT_TRUE(profile.executions_respect_capacity(config));
}

TEST(ApplyStrategies, ValidatesArguments) {
  const SystemConfig config({1.0, 2.0}, 5.0);
  TruthfulStrategy truthful;
  Rng rng(1);
  std::vector<const Strategy*> wrong_count{&truthful};
  EXPECT_THROW((void)apply_strategies(config, wrong_count, rng),
               lbmv::util::PreconditionError);
  std::vector<const Strategy*> with_null{&truthful, nullptr};
  EXPECT_THROW((void)apply_strategies(config, with_null, rng),
               lbmv::util::PreconditionError);
}

}  // namespace
