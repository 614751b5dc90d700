// Tests for the frugality analysis (paper Figure 6).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lbmv/analysis/paper_config.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/frugality.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"

namespace {

using lbmv::analysis::paper_table1_config;
using lbmv::core::CompBonusMechanism;
using lbmv::core::frugality_arrival_sweep;
using lbmv::core::frugality_heterogeneity_sweep;
using lbmv::core::frugality_of;
using lbmv::core::FrugalityReport;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;

TEST(Frugality, PaperTrue1RatioMatchesClosedForm) {
  // Total payment = L* + sum_i (L_{-i} - L*) and total valuation = L*; for
  // Table 1 the ratio evaluates to ~2.138, within the paper's "at most 2.5".
  const SystemConfig config = paper_table1_config();
  CompBonusMechanism mechanism;
  const auto outcome = mechanism.run(config, BidProfile::truthful(config));
  const FrugalityReport report = frugality_of(outcome);
  EXPECT_NEAR(report.total_valuation, 400.0 / 5.1, 1e-9);
  const double expected_bonus_sum =
      2.0 * (400.0 / 4.1 - 400.0 / 5.1) + 3.0 * (400.0 / 4.6 - 400.0 / 5.1) +
      5.0 * (400.0 / 4.9 - 400.0 / 5.1) + 6.0 * (400.0 / 5.0 - 400.0 / 5.1);
  EXPECT_NEAR(report.total_payment, 400.0 / 5.1 + expected_bonus_sum, 1e-8);
  EXPECT_NEAR(report.ratio(), 2.138, 0.002);
  EXPECT_LE(report.ratio(), 2.5);  // the paper's frugality bound
}

TEST(Frugality, RatioIsScaleInvariantInArrivalRate) {
  // Every term scales as R^2, so the truthful frugality ratio is flat in R.
  const SystemConfig config = paper_table1_config();
  CompBonusMechanism mechanism;
  const std::vector<double> rates{5.0, 10.0, 20.0, 40.0, 80.0};
  const auto sweep = frugality_arrival_sweep(mechanism, config, rates);
  ASSERT_EQ(sweep.size(), rates.size());
  const double ratio0 = sweep.front().report.ratio();
  for (const auto& point : sweep) {
    EXPECT_NEAR(point.report.ratio(), ratio0, 1e-9);
    EXPECT_NEAR(point.report.total_valuation,
                point.parameter * point.parameter / 5.1, 1e-8);
  }
}

TEST(Frugality, VoluntaryParticipationImpliesPaymentAtLeastValuation) {
  // The paper's lower bound: the total payment can never fall below the
  // total valuation, otherwise some truthful agent would lose.
  const SystemConfig config = paper_table1_config();
  CompBonusMechanism mechanism;
  const auto outcome = mechanism.run(config, BidProfile::truthful(config));
  const auto report = frugality_of(outcome);
  EXPECT_GE(report.total_payment, report.total_valuation);
  EXPECT_GE(report.ratio(), 1.0);
}

TEST(Frugality, HeterogeneitySweepIsMonotoneInstancewiseSane) {
  CompBonusMechanism mechanism;
  const std::vector<double> spreads{1.0, 2.0, 5.0, 10.0, 50.0};
  const auto sweep =
      frugality_heterogeneity_sweep(mechanism, 8, 20.0, spreads);
  ASSERT_EQ(sweep.size(), spreads.size());
  for (const auto& point : sweep) {
    EXPECT_GE(point.report.ratio(), 1.0);
    EXPECT_TRUE(std::isfinite(point.report.ratio()));
  }
  // Closed form: ratio = 1 + sum_i s_i / (S - s_i) with s_i = 1/t_i and
  // S = sum s_i.  A homogeneous system gives 1 + n/(n-1); heterogeneity
  // concentrates capacity in the fast machines, makes them more pivotal,
  // and drives the ratio *up*.
  EXPECT_NEAR(sweep.front().report.ratio(), 1.0 + 8.0 / 7.0, 1e-9);
  EXPECT_LT(sweep.front().report.ratio(), sweep.back().report.ratio());
}

TEST(Frugality, HeterogeneitySweepEqualsPerSpreadRuns) {
  // The sweep is one Mechanism::run per spread on that spread's truthful
  // profile (geometric types in [1, s]), bit for bit.
  const std::vector<double> spreads{1.0, 1.5, 2.0, 5.0, 10.0, 50.0, 100.0};
  const std::size_t n = 16;
  const lbmv::model::LinearFamily family;
  const CompBonusMechanism comp_bonus;
  const lbmv::core::VcgMechanism vcg;
  const lbmv::core::NoPaymentMechanism no_payment;
  for (const lbmv::core::Mechanism* mechanism :
       {static_cast<const lbmv::core::Mechanism*>(&comp_bonus),
        static_cast<const lbmv::core::Mechanism*>(&vcg),
        static_cast<const lbmv::core::Mechanism*>(&no_payment)}) {
    SCOPED_TRACE(mechanism->name());
    const auto sweep =
        frugality_heterogeneity_sweep(*mechanism, n, 20.0, spreads);
    ASSERT_EQ(sweep.size(), spreads.size());
    for (std::size_t k = 0; k < spreads.size(); ++k) {
      BidProfile profile;
      for (std::size_t i = 0; i < n; ++i) {
        profile.bids.push_back(std::pow(
            spreads[k], static_cast<double>(i) / static_cast<double>(n - 1)));
      }
      profile.executions = profile.bids;
      const FrugalityReport want =
          frugality_of(mechanism->run(family, 20.0, profile));
      EXPECT_EQ(sweep[k].parameter, spreads[k]);
      EXPECT_EQ(sweep[k].report.total_payment, want.total_payment);
      EXPECT_EQ(sweep[k].report.total_valuation, want.total_valuation);
    }
  }
}

TEST(Frugality, ZeroPaymentMechanismHasRatioZero) {
  const SystemConfig config({1.0, 2.0}, 4.0);
  lbmv::core::NoPaymentMechanism mechanism;
  const auto outcome = mechanism.run(config, BidProfile::truthful(config));
  const auto report = frugality_of(outcome);
  EXPECT_DOUBLE_EQ(report.total_payment, 0.0);
  EXPECT_DOUBLE_EQ(report.ratio(), 0.0);
}

TEST(Frugality, EmptyValuationGivesInfiniteRatio) {
  FrugalityReport report;
  report.total_payment = 1.0;
  report.total_valuation = 0.0;
  EXPECT_TRUE(std::isinf(report.ratio()));
}

TEST(Frugality, SweepsRejectBadParameters) {
  CompBonusMechanism mechanism;
  const SystemConfig config({1.0, 2.0}, 4.0);
  const std::vector<double> bad_rate{-1.0};
  EXPECT_THROW(
      (void)frugality_arrival_sweep(mechanism, config, bad_rate),
      lbmv::util::PreconditionError);
  const std::vector<double> bad_spread{0.5};
  EXPECT_THROW(
      (void)frugality_heterogeneity_sweep(mechanism, 4, 10.0, bad_spread),
      lbmv::util::PreconditionError);
  const std::vector<double> ok{2.0};
  EXPECT_THROW(
      (void)frugality_heterogeneity_sweep(mechanism, 1, 10.0, ok),
      lbmv::util::PreconditionError);
}

}  // namespace
