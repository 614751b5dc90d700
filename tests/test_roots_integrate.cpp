// Unit tests for lbmv/util/roots.h and lbmv/util/integrate.h.

#include <gtest/gtest.h>

#include <cmath>

#include "lbmv/util/error.h"
#include "lbmv/util/integrate.h"
#include "lbmv/util/roots.h"

namespace {

using lbmv::util::bisect;
using lbmv::util::golden_section_min;
using lbmv::util::integrate;
using lbmv::util::integrate_to_infinity;
using lbmv::util::minimize_scan;

TEST(Bisect, FindsSimpleRoot) {
  const auto r = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, AcceptsRootAtEndpoint) {
  const auto r = bisect([](double x) { return x - 1.0; }, 1.0, 5.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x, 1.0);
}

TEST(Bisect, RejectsNonBracketingInterval) {
  EXPECT_THROW(
      (void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      lbmv::util::PreconditionError);
}

TEST(Bisect, HonoursFunctionTolerance) {
  const auto r = bisect([](double x) { return x; }, -1.0, 3.0, 0.0, 1e-6, 200);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(std::fabs(r.fx), 1e-6);
}

TEST(GoldenSection, FindsParabolaMinimum) {
  const auto r = golden_section_min(
      [](double x) { return (x - 1.5) * (x - 1.5) + 2.0; }, -10.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 1.5, 1e-7);
  EXPECT_NEAR(r.fx, 2.0, 1e-12);
}

TEST(GoldenSection, DegenerateIntervalReturnsMidpoint) {
  const auto r = golden_section_min([](double x) { return x; }, 3.0, 3.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x, 3.0);
}

TEST(MinimizeScan, EscapesLocalMinimum) {
  // Two wells: local at x ~ -1 (depth 1), global at x ~ 2 (depth 3).
  auto f = [](double x) {
    return -1.0 / (1.0 + (x + 1.0) * (x + 1.0)) -
           3.0 / (1.0 + 4.0 * (x - 2.0) * (x - 2.0));
  };
  const auto r = minimize_scan(f, -5.0, 5.0, 128);
  EXPECT_NEAR(r.x, 2.0, 0.05);
}

TEST(MinimizeScan, HandlesMinimumAtBoundary) {
  const auto r = minimize_scan([](double x) { return x; }, 1.0, 4.0);
  EXPECT_NEAR(r.x, 1.0, 1e-6);
}

TEST(Integrate, ExactOnPolynomials) {
  // Simpson is exact for cubics; the adaptive version must match analytic
  // values for higher degrees too.
  const double v =
      integrate([](double x) { return x * x * x - 2.0 * x + 1.0; }, 0.0, 2.0);
  EXPECT_NEAR(v, 4.0 - 4.0 + 2.0, 1e-10);
  const double q = integrate([](double x) { return std::pow(x, 6); }, 0.0,
                             1.0, 1e-12);
  EXPECT_NEAR(q, 1.0 / 7.0, 1e-10);
}

TEST(Integrate, ReversedBoundsFlipSign) {
  const double a = integrate([](double x) { return x; }, 0.0, 1.0);
  const double b = integrate([](double x) { return x; }, 1.0, 0.0);
  EXPECT_NEAR(a, -b, 1e-12);
}

TEST(Integrate, ZeroWidthIsZero) {
  EXPECT_DOUBLE_EQ(integrate([](double) { return 5.0; }, 2.0, 2.0), 0.0);
}

TEST(IntegrateToInfinity, MatchesClosedFormTail) {
  // Integral_1^inf 1/x^2 dx = 1.
  const double v =
      integrate_to_infinity([](double x) { return 1.0 / (x * x); }, 1.0);
  EXPECT_NEAR(v, 1.0, 1e-8);
}

TEST(IntegrateToInfinity, ExponentialTail) {
  // Integral_a^inf e^-x dx = e^-a.
  const double v =
      integrate_to_infinity([](double x) { return std::exp(-x); }, 2.0);
  EXPECT_NEAR(v, std::exp(-2.0), 1e-8);
}

TEST(IntegrateToInfinity, ArcherTardosShapedIntegrand) {
  // Integral_b^inf R^2/(1+u*s)^2 du = R^2 / (s (1 + b s)).
  const double R = 20.0, s = 4.1, b = 1.0;
  const double v = integrate_to_infinity(
      [&](double u) {
        const double d = 1.0 + u * s;
        return R * R / (d * d);
      },
      b);
  EXPECT_NEAR(v, R * R / (s * (1.0 + b * s)), 1e-7);
}

}  // namespace
