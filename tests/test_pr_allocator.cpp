// Tests for the PR algorithm (paper Theorem 2.1), including the pinned
// numbers reconstructed from the paper's evaluation section.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/analysis/paper_config.h"
#include "lbmv/model/system_config.h"
#include "lbmv/util/error.h"

namespace {

using lbmv::alloc::pr_allocate;
using lbmv::alloc::pr_optimal_latency;
using lbmv::alloc::PRAllocator;
using lbmv::model::Allocation;

TEST(PrAllocate, ProportionalToProcessingRates) {
  // Types (1, 2): computer 0 is twice as fast and gets twice the jobs.
  const std::vector<double> t{1.0, 2.0};
  const Allocation x = pr_allocate(t, 9.0);
  EXPECT_NEAR(x[0], 6.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(PrAllocate, HomogeneousSystemSplitsEvenly) {
  const std::vector<double> t{3.0, 3.0, 3.0, 3.0};
  const Allocation x = pr_allocate(t, 8.0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(x[i], 2.0, 1e-12);
}

TEST(PrAllocate, SingleComputerTakesEverything) {
  const std::vector<double> t{5.0};
  const Allocation x = pr_allocate(t, 7.0);
  EXPECT_DOUBLE_EQ(x[0], 7.0);
}

TEST(PrAllocate, AlwaysFeasible) {
  const std::vector<double> t{0.3, 1.0, 2.5, 100.0};
  const Allocation x = pr_allocate(t, 17.0);
  EXPECT_TRUE(x.is_feasible(17.0));
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_GT(x[i], 0.0);
}

TEST(PrAllocate, ScalesLinearlyWithArrivalRate) {
  const std::vector<double> t{1.0, 4.0};
  const Allocation x1 = pr_allocate(t, 10.0);
  const Allocation x2 = pr_allocate(t, 20.0);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(x2[i], 2.0 * x1[i], 1e-12);
  }
}

TEST(PrOptimalLatency, MatchesEquation4) {
  // L* = R^2 / sum(1/t).
  const std::vector<double> t{1.0, 2.0};
  EXPECT_NEAR(pr_optimal_latency(t, 9.0), 81.0 / 1.5, 1e-12);
}

TEST(PrOptimalLatency, EqualsLatencyOfPrAllocation) {
  const std::vector<double> t{0.7, 1.3, 4.0};
  const double R = 12.0;
  const Allocation x = pr_allocate(t, R);
  EXPECT_NEAR(lbmv::model::total_latency_linear(x, t),
              pr_optimal_latency(t, R), 1e-10);
}

TEST(PrOptimalLatency, PaperTrue1ValueIs78_43) {
  // The headline pinned number: Table 1 config at R = 20 gives L* = 78.43.
  const auto config = lbmv::analysis::paper_table1_config();
  const double l_star = pr_optimal_latency(
      std::vector<double>(config.true_values().begin(),
                          config.true_values().end()),
      config.arrival_rate());
  EXPECT_NEAR(l_star, 400.0 / 5.1, 1e-10);
  EXPECT_NEAR(l_star, 78.43, 0.005);  // the paper reports 78.43
}

TEST(PrOptimalLatency, AnyOtherFeasibleAllocationIsWorse) {
  const std::vector<double> t{1.0, 2.0, 5.0};
  const double R = 10.0;
  const double l_star = pr_optimal_latency(t, R);
  // Perturb the optimal allocation in a conservation-preserving way.
  const Allocation x = pr_allocate(t, R);
  for (double eps : {0.01, 0.1, 0.5}) {
    Allocation perturbed({x[0] + eps, x[1] - eps, x[2]});
    EXPECT_GT(lbmv::model::total_latency_linear(perturbed, t), l_star);
  }
}

TEST(PrAllocate, RejectsBadInput) {
  EXPECT_THROW((void)pr_allocate({}, 1.0), lbmv::util::PreconditionError);
  EXPECT_THROW((void)pr_allocate(std::vector<double>{1.0}, 0.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)pr_allocate(std::vector<double>{1.0, -1.0}, 1.0),
               lbmv::util::PreconditionError);
}

TEST(PrLeaveOneOut, OverflowingQuotientNamesTheAgent) {
  // R^2 = 1e320 leaves the double range, so R^2 / (S - 1/t_i) is no optimum.
  std::vector<double> out(2);
  try {
    lbmv::alloc::pr_leave_one_out_into(std::vector<double>{1e-300, 1e-300},
                                       1e160, out);
    FAIL() << "an infinite leave-one-out optimum was returned";
  } catch (const lbmv::util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "overflows the double range (agent 0 of 2)"),
              std::string::npos)
        << e.what();
  }
}

TEST(PRAllocatorInterface, DelegatesToClosedForm) {
  PRAllocator allocator;
  lbmv::model::LinearFamily family;
  const std::vector<double> t{1.0, 2.0};
  const Allocation direct = pr_allocate(t, 9.0);
  const Allocation via = allocator.allocate(family, t, 9.0);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(via[i], direct[i]);
  }
  EXPECT_NEAR(allocator.optimal_latency(family, t, 9.0),
              pr_optimal_latency(t, 9.0), 1e-12);
  EXPECT_EQ(allocator.name(), "pr");
}

TEST(PRAllocatorInterface, NonLinearFamilyEvaluatesActualCurves) {
  // On a non-linear family, the PR split is still returned but its reported
  // latency is evaluated against the true curves (and exceeds the optimum).
  PRAllocator pr;
  lbmv::model::PowerFamily family(2.0);
  const std::vector<double> t{1.0, 3.0};
  const Allocation x = pr.allocate(family, t, 4.0);
  const auto fns = [&] {
    std::vector<std::unique_ptr<lbmv::model::LatencyFunction>> v;
    for (double ti : t) v.push_back(family.make(ti));
    return v;
  }();
  EXPECT_NEAR(pr.optimal_latency(family, t, 4.0),
              lbmv::model::total_latency(x, fns), 1e-12);
}

}  // namespace
