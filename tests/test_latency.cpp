// Unit tests for the latency-function hierarchy and families.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"

namespace {

using namespace lbmv::model;

TEST(LinearLatency, MatchesPaperEquation1) {
  // l(x) = t * x; cost = t * x^2; marginal = 2 t x.
  LinearLatency l(2.0);
  EXPECT_DOUBLE_EQ(l.latency(3.0), 6.0);
  EXPECT_DOUBLE_EQ(l.latency_derivative(3.0), 2.0);
  EXPECT_DOUBLE_EQ(l.cost(3.0), 18.0);
  EXPECT_DOUBLE_EQ(l.marginal_cost(3.0), 12.0);
  EXPECT_TRUE(std::isinf(l.max_rate()));
}

TEST(LinearLatency, RejectsNonPositiveSlope) {
  EXPECT_THROW(LinearLatency(0.0), lbmv::util::PreconditionError);
  EXPECT_THROW(LinearLatency(-1.0), lbmv::util::PreconditionError);
}

TEST(AffineLatency, ValueAndDerivative) {
  AffineLatency l(1.0, 0.5);
  EXPECT_DOUBLE_EQ(l.latency(4.0), 3.0);
  EXPECT_DOUBLE_EQ(l.latency_derivative(4.0), 0.5);
  EXPECT_DOUBLE_EQ(l.marginal_cost(4.0), 3.0 + 4.0 * 0.5);
}

TEST(AffineLatency, RejectsDegenerateParameters) {
  EXPECT_THROW(AffineLatency(0.0, 0.0), lbmv::util::PreconditionError);
  EXPECT_THROW(AffineLatency(-1.0, 1.0), lbmv::util::PreconditionError);
}

TEST(MG1LightLoad, ReducesToAffineInArrivalRate) {
  // E[S] = 0.1, E[S^2] = 0.03: l(x) = 0.1 + 0.015 x.
  MG1LightLoadLatency l(0.1, 0.03);
  EXPECT_DOUBLE_EQ(l.latency(0.0), 0.1);
  EXPECT_DOUBLE_EQ(l.latency(2.0), 0.1 + 0.03);
  EXPECT_DOUBLE_EQ(l.latency_derivative(5.0), 0.015);
}

TEST(MG1LightLoad, EnforcesJensen) {
  // E[S^2] < E[S]^2 is impossible for a real random variable.
  EXPECT_THROW(MG1LightLoadLatency(1.0, 0.5), lbmv::util::PreconditionError);
}

TEST(MM1Latency, ExpectedResponseTimeAndDomain) {
  MM1Latency l(5.0);
  EXPECT_DOUBLE_EQ(l.latency(0.0), 0.2);
  EXPECT_DOUBLE_EQ(l.latency(4.0), 1.0);
  EXPECT_DOUBLE_EQ(l.latency_derivative(4.0), 1.0);
  EXPECT_DOUBLE_EQ(l.max_rate(), 5.0);
  EXPECT_THROW((void)l.latency(5.0), lbmv::util::PreconditionError);
  EXPECT_THROW((void)l.latency(-0.1), lbmv::util::PreconditionError);
}

TEST(MM1Latency, MarginalCostIsMuOverSquare) {
  // c(x) = x/(mu-x); c'(x) = mu/(mu-x)^2.
  MM1Latency l(3.0);
  const double x = 1.0;
  EXPECT_NEAR(l.marginal_cost(x), 3.0 / (2.0 * 2.0), 1e-12);
}

TEST(MM1Latency, Mm1CostIsTheLatencyObjectsCostBitForBit) {
  // model::mm1_cost keeps MM1Latency's operand order x * (1/(mu - x)).
  for (double mu : {0.3, 1.0, 7.0, 1e6}) {
    const MM1Latency l(mu);
    for (double share : {0.0, 1e-9, 0.25, 0.5, 0.9, 0.999999}) {
      const double x = share * mu;
      EXPECT_EQ(mm1_cost(x, mu), l.cost(x)) << "mu " << mu << " x " << x;
    }
  }
}

TEST(PowerLatency, ValueDerivativeAndConvexityGuard) {
  PowerLatency l(2.0, 3.0);
  EXPECT_DOUBLE_EQ(l.latency(2.0), 16.0);
  EXPECT_DOUBLE_EQ(l.latency_derivative(2.0), 2.0 * 3.0 * 4.0);
  EXPECT_THROW(PowerLatency(1.0, 0.5), lbmv::util::PreconditionError);
}

TEST(PowerLatency, ExponentOneEqualsLinear) {
  PowerLatency p(2.0, 1.0);
  LinearLatency l(2.0);
  for (double x : {0.0, 0.5, 2.0, 7.0}) {
    EXPECT_DOUBLE_EQ(p.latency(x), l.latency(x));
    EXPECT_DOUBLE_EQ(p.latency_derivative(x), l.latency_derivative(x));
  }
}

TEST(LinearFamily, MakesLinearWithTheta) {
  LinearFamily family;
  const auto f = family.make(3.0);
  EXPECT_DOUBLE_EQ(f->latency(2.0), 6.0);
  EXPECT_EQ(family.name(), "linear");
  EXPECT_THROW((void)family.make(0.0), lbmv::util::PreconditionError);
}

TEST(MM1Family, ThetaIsMeanServiceTime) {
  MM1Family family;
  const auto f = family.make(0.25);  // mu = 4
  EXPECT_DOUBLE_EQ(f->max_rate(), 4.0);
  EXPECT_EQ(family.name(), "mm1");
}

TEST(MM1Family, LargerThetaIsSlowerEverywhere) {
  MM1Family family;
  const auto fast = family.make(0.2);
  const auto slow = family.make(0.5);
  for (double x : {0.0, 0.5, 1.0, 1.5}) {
    EXPECT_GT(slow->latency(x), fast->latency(x));
  }
}

TEST(PowerFamily, CarriesExponent) {
  PowerFamily family(2.0);
  const auto f = family.make(3.0);
  EXPECT_DOUBLE_EQ(f->latency(2.0), 12.0);
  EXPECT_NE(family.name().find("power"), std::string::npos);
}

TEST(LatencyConvexity, MarginalCostIsIncreasingForAllFamilies) {
  // Convexity of the cost is what the allocation theory relies on.
  const std::unique_ptr<LatencyFunction> fns[] = {
      std::make_unique<LinearLatency>(2.0),
      std::make_unique<AffineLatency>(1.0, 0.5),
      std::make_unique<MM1Latency>(10.0),
      std::make_unique<PowerLatency>(0.7, 2.5),
  };
  for (const auto& f : fns) {
    double prev = f->marginal_cost(0.0);
    for (double x = 0.5; x < 5.0; x += 0.5) {
      const double cur = f->marginal_cost(x);
      EXPECT_GT(cur, prev) << f->describe() << " at x=" << x;
      prev = cur;
    }
  }
}

}  // namespace
