// Differential suite for the profile contexts' deviation sweeps
// (ProfileUtilityContext::utilities_into / best_response and the lane
// driver in core/grid_kernels.h, DESIGN.md §13).  The lane sweeps must
// agree with the context's scalar utility() bit for bit (the same templated
// IEEE expressions) and with the reference context to 1e-9 (relative),
// across all five closed-form payment rules, boundary bids at both edges of
// the search interval, every partial-block remainder (grid sizes 1..9), and
// first-index argmax tie-breaking; a throwing grid throws what its first
// failing candidate's scalar query throws.  Every context, query and
// commit shares one input contract (model::require_valid_deviation).  The
// whole file runs under both LBMV_SIMD=ON and =OFF CI legs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/grid_kernels.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/strategy/learning.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using lbmv::core::ArcherTardosMechanism;
using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::GridBest;
using lbmv::core::Mechanism;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::ProfileUtilityContext;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;
using lbmv::strategy::GridSpacing;
using lbmv::strategy::make_bid_grid;
using lbmv::strategy::make_bid_grid_into;
using lbmv::util::PreconditionError;

constexpr int kMechanismKinds = 5;

/// All five closed-form payment rules, index-addressable.
std::unique_ptr<Mechanism> make_mechanism(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<CompBonusMechanism>();
    case 1:
      return std::make_unique<CompBonusMechanism>(
          lbmv::core::default_allocator(), CompensationBasis::kBid);
    case 2:
      return std::make_unique<VcgMechanism>();
    case 3:
      return std::make_unique<ArcherTardosMechanism>();
    default:
      return std::make_unique<NoPaymentMechanism>();
  }
}

std::vector<double> log_uniform_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return t;
}

BidProfile random_profile(const SystemConfig& config, lbmv::util::Rng& rng) {
  BidProfile profile = BidProfile::truthful(config);
  for (std::size_t i = 0; i < config.size(); ++i) {
    profile.bids[i] *= std::exp(rng.uniform(std::log(0.5), std::log(2.0)));
    profile.executions[i] *= rng.uniform(1.0, 2.5);
  }
  return profile;
}

/// The mechanism's profile context at \p profile (the closed form where
/// one exists), or with \p reference the reference context.
std::unique_ptr<ProfileUtilityContext> context_at(
    const Mechanism& mechanism, const SystemConfig& config,
    const BidProfile& profile, bool reference = false) {
  return reference ? mechanism.make_reference_context(
                         config.family(), config.arrival_rate(), profile)
                   : mechanism.make_profile_context(
                         config.family(), config.arrival_rate(), profile);
}

void expect_rel_near(double actual, double expected, double rel_tol,
                     const char* what) {
  const double scale = std::max(1.0, std::fabs(expected));
  EXPECT_NEAR(actual, expected, rel_tol * scale) << what;
}

class GridKernelDifferential : public ::testing::TestWithParam<int> {};

// Vectorized utilities == the context's scalar utility(), bitwise, on
// random profiles/grids of every remainder size 1..9 — and within 1e-9 of
// the reference context's full-mechanism runs.
TEST_P(GridKernelDifferential, MatchesScalarOracleAcrossGridSizes) {
  const auto mechanism = make_mechanism(GetParam());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    lbmv::util::Rng rng(seed * 977);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 12));
    const SystemConfig config(log_uniform_types(n, seed),
                              rng.uniform(2.0, 50.0));
    const BidProfile profile = random_profile(config, rng);
    const auto ctx = context_at(*mechanism, config, profile);
    const auto naive = context_at(*mechanism, config, profile, true);
    ASSERT_TRUE(ctx->lane_sweeps()) << mechanism->name();

    for (std::size_t size = 1; size <= 9; ++size) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const double t = config.true_value(i);
      const double exec = t * rng.uniform(1.0, 3.0);
      std::vector<double> bids(size);
      for (double& b : bids) {
        b = t * std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
      }
      std::vector<double> out(size);
      ctx->utilities_into(i, bids, exec, out);
      for (std::size_t k = 0; k < size; ++k) {
        // Bit-exact against the scalar closed form...
        EXPECT_EQ(out[k], ctx->utility(i, bids[k], exec))
            << mechanism->name() << " size=" << size << " k=" << k;
        // ...and 1e-9-close to the full-mechanism run.
        expect_rel_near(out[k], naive->utility(i, bids[k], exec), 1e-9,
                        mechanism->name().c_str());
      }
    }
  }
}

// Boundary candidates at both edges of the sweep interval: bids far below
// and far above every other agent's, mixed into one grid.
TEST_P(GridKernelDifferential, BoundaryBidsMatchScalar) {
  const auto mechanism = make_mechanism(GetParam());
  const SystemConfig config(log_uniform_types(6, 11), 25.0);
  const auto ctx = context_at(*mechanism, config, BidProfile::truthful(config));
  ASSERT_TRUE(ctx->lane_sweeps());

  for (std::size_t i = 0; i < config.size(); ++i) {
    const double t = config.true_value(i);
    const std::vector<double> bids = {1e-9 * t, 1e-4 * t, 0.05 * t, t,
                                      20.0 * t, 1e4 * t,  1e9 * t};
    std::vector<double> out(bids.size());
    ctx->utilities_into(i, bids, t, out);
    for (std::size_t k = 0; k < bids.size(); ++k) {
      EXPECT_EQ(out[k], ctx->utility(i, bids[k], t))
          << mechanism->name() << " agent=" << i << " k=" << k;
    }
  }
}

// The block argmax must reproduce a strictly-greater first-wins scalar scan
// — including on grids engineered to contain exact ties within and across
// 4-lane blocks.
TEST_P(GridKernelDifferential, ArgmaxMatchesFirstWinsScan) {
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(4242);
  const SystemConfig config(log_uniform_types(5, 3), 30.0);
  const auto ctx = context_at(*mechanism, config, BidProfile::truthful(config));
  ASSERT_TRUE(ctx->lane_sweeps());

  for (int trial = 0; trial < 16; ++trial) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const double t = config.true_value(i);
    const double exec = t * rng.uniform(1.0, 2.0);
    const auto size = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<double> bids(size);
    for (double& b : bids) {
      b = t * std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
    }
    // Duplicate some candidates to force exact utility ties at distinct
    // indices (including across block boundaries).
    for (std::size_t k = 1; k < size; k += 3) {
      bids[k] = bids[rng.uniform_int(0, 1) != 0 ? 0 : k - 1];
    }

    const GridBest best = ctx->best_response(i, bids, exec);
    std::size_t want_idx = 0;
    double want_u = ctx->utility(i, bids[0], exec);
    for (std::size_t k = 1; k < size; ++k) {
      const double u = ctx->utility(i, bids[k], exec);
      if (u > want_u) {
        want_u = u;
        want_idx = k;
      }
    }
    EXPECT_EQ(best.index, want_idx) << mechanism->name() << " size=" << size;
    EXPECT_EQ(best.utility, want_u) << mechanism->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, GridKernelDifferential,
                         ::testing::Range(0, kMechanismKinds));

/// One profile context per family with a closed form: linear-PR, M/M/1
/// (narrow service times, every computer active) and workload.
struct FamilyCase {
  std::string label;
  std::unique_ptr<Mechanism> mechanism;
  SystemConfig config;
};

std::vector<FamilyCase> family_cases(std::size_t n = 4) {
  std::vector<double> thetas(n);
  for (std::size_t j = 0; j < n; ++j) {
    thetas[j] = 0.5 + 0.5 * static_cast<double>(j) / static_cast<double>(n);
  }
  double sum_mu = 0.0;
  for (double t : thetas) sum_mu += 1.0 / t;
  std::vector<FamilyCase> cases;
  cases.push_back({"linear", std::make_unique<CompBonusMechanism>(),
                   SystemConfig(log_uniform_types(n, 7), 20.0)});
  cases.push_back(
      {"mm1",
       std::make_unique<CompBonusMechanism>(
           std::make_shared<const lbmv::alloc::MM1Allocator>()),
       SystemConfig(thetas, 0.4 * sum_mu,
                    std::make_shared<const lbmv::model::MM1Family>())});
  cases.push_back(
      {"workload",
       std::make_unique<CompBonusMechanism>(
           std::make_shared<const lbmv::alloc::WorkloadAllocator>()),
       SystemConfig(thetas, 0.4 * sum_mu,
                    std::make_shared<const lbmv::model::WorkloadFamily>(0.5))});
  return cases;
}

/// what() of the PreconditionError \p fn throws ("" if none; any other
/// exception fails the test).
template <class Fn>
std::string precondition_what(Fn fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "not a PreconditionError: " << e.what();
  }
  return "";
}

// One input contract for every deviation query: on every context, utility,
// commit and both sweeps reject a zero, negative, infinite or NaN bid or
// execution, and an agent index out of range, with the shared check's
// PreconditionError; a rejected commit writes nothing.
TEST(GridKernels, MaskSemanticsRejectInvalidCandidates) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const FamilyCase& fc : family_cases()) {
    SCOPED_TRACE(fc.label);
    const BidProfile base = BidProfile::truthful(fc.config);
    const std::size_t n = fc.config.size();
    const auto ctx = context_at(*fc.mechanism, fc.config, base);
    ASSERT_TRUE(ctx->closed_form());
    const double t = fc.config.true_value(1);
    const auto expect_rejected = [&](std::size_t agent, double bid,
                                     double exec, const std::string& what) {
      SCOPED_TRACE("agent " + std::to_string(agent) + " bid " +
                   std::to_string(bid) + " exec " + std::to_string(exec));
      // The bad bid sits mid-grid, in a full lane block and in the padded
      // tail block.
      const std::vector<double> full{t, 2.0 * t, bid, 3.0 * t, 4.0 * t};
      const std::vector<double> tail{t, 2.0 * t, 3.0 * t, 4.0 * t, bid};
      std::vector<double> out(full.size());
      for (const auto* grid : {&full, &tail}) {
        EXPECT_NE(precondition_what(
                      [&] { ctx->utilities_into(agent, *grid, exec, out); })
                      .find(what),
                  std::string::npos);
        EXPECT_NE(precondition_what(
                      [&] { (void)ctx->best_response(agent, *grid, exec); })
                      .find(what),
                  std::string::npos);
      }
      EXPECT_NE(
          precondition_what([&] { (void)ctx->utility(agent, bid, exec); })
              .find(what),
          std::string::npos);
      EXPECT_NE(precondition_what([&] { ctx->commit(agent, bid, exec); })
                    .find(what),
                std::string::npos);
      const lbmv::core::BidDelta batch[] = {{0, t, t}, {agent, bid, exec}};
      EXPECT_NE(precondition_what([&] { ctx->commit_batch(batch); })
                    .find(what),
                std::string::npos);
    };
    for (double bad : {0.0, -1.0, inf, nan}) {
      expect_rejected(1, bad, t, "bids must be positive and finite (agent 1)");
      expect_rejected(1, t, bad,
                      "execution values must be positive and finite "
                      "(agent 1)");
    }
    expect_rejected(n, t, t, "agent index out of range");
    EXPECT_EQ(ctx->profile().bids, base.bids);
    EXPECT_EQ(ctx->profile().executions, base.executions);

    const std::vector<double> good = {0.9 * t, t, 1.1 * t, 1.2 * t, 1.3 * t};
    std::vector<double> out(good.size());
    EXPECT_NO_THROW(ctx->utilities_into(1, good, t, out));
    EXPECT_NO_THROW((void)ctx->best_response(1, good, t));
  }
}

// Subnormal bids overflow the linear closed form (1/b, and then inf / inf
// in x): a non-finite lane defers to utility(), which names the agent and
// the bid instead of answering NaN, on every rule and entry point.
TEST(GridKernels, LinearClosedFormThrowsInsteadOfNaN) {
  const lbmv::model::LinearFamily family;
  BidProfile base;
  for (int i = 0; i < 16; ++i) {
    base.bids.push_back(0.5 + 0.37 * ((7 * i) % 13));
  }
  base.executions = base.bids;
  for (int kind = 0; kind < kMechanismKinds; ++kind) {
    const auto mechanism = make_mechanism(kind);
    SCOPED_TRACE(mechanism->name());
    const auto ctx = mechanism->make_profile_context(family, 20.0, base);
    ASSERT_TRUE(ctx->closed_form());
    int thrown = 0;
    for (const double bid : {1e-200, 1e-300, 1e-310, 4.9e-324}) {
      SCOPED_TRACE("bid " + std::to_string(bid));
      std::ostringstream needle;
      needle << "agent 0 at bid " << bid;
      const std::string scalar = precondition_what([&] {
        EXPECT_TRUE(std::isfinite(ctx->utility(0, bid, 1.0)));
      });
      if (!scalar.empty()) {
        ++thrown;
        EXPECT_TRUE(scalar.find(needle.str()) != std::string::npos ||
                    scalar.find("(agent 0 of 16)") != std::string::npos ||
                    scalar.find("positive capacity (agent 0)") !=
                        std::string::npos)
            << scalar;
      }
      // The bid in a full lane block and in the padded tail block.
      const std::vector<double> full{1.0, 2.0, bid, 3.0, 4.0};
      const std::vector<double> tail{1.0, 2.0, 3.0, 4.0, bid};
      for (const auto* grid : {&full, &tail}) {
        std::vector<double> out(grid->size());
        const std::string swept = precondition_what(
            [&] { ctx->utilities_into(0, *grid, 1.0, out); });
        const std::string best = precondition_what(
            [&] { (void)ctx->best_response(0, *grid, 1.0); });
        EXPECT_EQ(swept, scalar);
        EXPECT_EQ(best, scalar);
        if (!scalar.empty()) continue;
        for (std::size_t k = 0; k < grid->size(); ++k) {
          EXPECT_EQ(out[k], ctx->utility(0, (*grid)[k], 1.0));
        }
      }
    }
    // Every rule overflows at least at the subnormal bids.
    EXPECT_GE(thrown, 2);
  }
}

TEST(GridKernels, LanesPaddedCountsTailLanes) {
  using lbmv::core::grid_lanes_padded;
  EXPECT_EQ(grid_lanes_padded(1), 3u);
  EXPECT_EQ(grid_lanes_padded(2), 2u);
  EXPECT_EQ(grid_lanes_padded(3), 1u);
  EXPECT_EQ(grid_lanes_padded(4), 0u);
  EXPECT_EQ(grid_lanes_padded(5), 3u);
  EXPECT_EQ(grid_lanes_padded(7), 1u);
  EXPECT_EQ(grid_lanes_padded(8), 0u);
  EXPECT_EQ(grid_lanes_padded(1000), 0u);
}

TEST(MakeBidGrid, LinearAndLogSpacingMatchLegacyExpressions) {
  const std::vector<double> lin = make_bid_grid(2.0, 10.0, 5);
  ASSERT_EQ(lin.size(), 5u);
  const double step = (10.0 - 2.0) / 4.0;
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(lin[k], 2.0 + step * static_cast<double>(k));
  }

  const std::vector<double> log =
      make_bid_grid(0.5, 8.0, 7, GridSpacing::kLog);
  ASSERT_EQ(log.size(), 7u);
  const double log_lo = std::log(0.5);
  const double log_hi = std::log(8.0);
  for (std::size_t k = 0; k < 7; ++k) {
    const double frac = static_cast<double>(k) / 6.0;
    EXPECT_EQ(log[k], std::exp(log_lo + frac * (log_hi - log_lo)));
  }

  // Reuse without reallocation.
  std::vector<double> buf;
  make_bid_grid_into(1.0, 2.0, 3, GridSpacing::kLinear, buf);
  EXPECT_EQ(buf.size(), 3u);
  make_bid_grid_into(1.0, 2.0, 2, GridSpacing::kLinear, buf);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(MakeBidGrid, RejectsDegenerateIntervals) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)make_bid_grid(0.0, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(-1.0, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(1.0, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(2.0, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(1.0, inf, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(nan, 1.0, 4), PreconditionError);
  EXPECT_THROW((void)make_bid_grid(1.0, 2.0, 1), PreconditionError);
}

// Context sweeps: lane-path proof, reference-context equivalence, and the
// first error of a throwing grid.

/// lbmv_strategy_grid_lanes_wasted_total right now.
std::uint64_t lanes_wasted() {
  const auto snap = lbmv::obs::Registry::global().snapshot();
  const auto it = snap.counters.find("lbmv_strategy_grid_lanes_wasted_total");
  return it == snap.counters.end() ? 0 : it->second;
}

// The lane sweep serves the linear context (a 37-candidate sweep pads 3
// tail lanes) and the M/M/1 and workload contexts keep the per-candidate
// loop (no lanes to pad).
TEST(DeviationSweeps, LaneSweepsServeTheLinearContextOnly) {
  if (!lbmv::obs::kCompiledIn) {
    GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)";
  }
  const bool was_enabled = lbmv::obs::enabled();
  lbmv::obs::set_enabled(true);
  for (const FamilyCase& fc : family_cases()) {
    const auto ctx =
        context_at(*fc.mechanism, fc.config, BidProfile::truthful(fc.config));
    const double t = fc.config.true_value(2);
    const std::vector<double> bids = make_bid_grid(0.9 * t, 4.0 * t, 37);
    std::vector<double> out(bids.size());
    const std::uint64_t before = lanes_wasted();
    ctx->utilities_into(2, bids, t, out);
    EXPECT_EQ(lanes_wasted() - before, fc.label == "linear" ? 3u : 0u)
        << fc.label;
    for (std::size_t k = 0; k < bids.size(); ++k) {
      EXPECT_EQ(out[k], ctx->utility(2, bids[k], t)) << fc.label;
    }
  }
  lbmv::obs::set_enabled(was_enabled);
}

TEST(DeviationSweeps, ScalarFallbackAgreesWithLaneSweepWithinTolerance) {
  const CompBonusMechanism mechanism;
  const SystemConfig config(log_uniform_types(6, 19), 22.0);
  const BidProfile truthful = BidProfile::truthful(config);
  const auto fast = context_at(mechanism, config, truthful);
  const auto naive = context_at(mechanism, config, truthful, true);
  EXPECT_TRUE(fast->lane_sweeps());
  EXPECT_FALSE(naive->closed_form());
  EXPECT_FALSE(naive->lane_sweeps());

  const double t = config.true_value(2);
  const std::vector<double> bids = make_bid_grid(0.05 * t, 20.0 * t, 37);
  std::vector<double> u_vec(bids.size());
  std::vector<double> u_scal(bids.size());
  fast->utilities_into(2, bids, t, u_vec);
  naive->utilities_into(2, bids, t, u_scal);
  for (std::size_t k = 0; k < bids.size(); ++k) {
    expect_rel_near(u_vec[k], u_scal[k], 1e-9, "sweep fallback");
  }

  const GridBest bv = fast->best_response(2, bids, t);
  const GridBest bs = naive->best_response(2, bids, t);
  EXPECT_EQ(bv.index, bs.index);
  expect_rel_near(bv.utility, bs.utility, 1e-9, "sweep best");
}

// A throwing M/M/1 grid: an execution overload at candidate 2500 of 4500 and
// a NaN at 4000.  Both sweeps (the per-candidate loop) throw what the first
// failing candidate's scalar query throws.
TEST(DeviationSweeps, ThrowingGridRaisesTheFirstFailingCandidatesError) {
  for (const FamilyCase& fc : family_cases(8)) {
    if (fc.label != "mm1") continue;
    const auto ctx =
        context_at(*fc.mechanism, fc.config, BidProfile::truthful(fc.config));
    ASSERT_FALSE(ctx->lane_sweeps());
    const double t = fc.config.true_value(3);
    // Candidates from 0.9x truth up stay within the agent's true capacity.
    std::vector<double> bad = make_bid_grid(0.9 * t, 8.0 * t, 4500);
    bad[2500] = 0.05 * t;
    bad[4000] = std::numeric_limits<double>::quiet_NaN();
    const std::string first =
        precondition_what([&] { (void)ctx->utility(3, bad[2500], t); });
    ASSERT_NE(first.find("0 <= x < mu"), std::string::npos) << first;
    std::vector<double> out(bad.size());
    EXPECT_EQ(precondition_what([&] { (void)ctx->best_response(3, bad, t); }),
              first);
    EXPECT_EQ(precondition_what([&] { ctx->utilities_into(3, bad, t, out); }),
              first);
  }
}

// Full-feedback learners see every arm's counterfactual each round, so a
// single learner against truthful opponents must lock onto the dominant
// truthful arm under the verified mechanism.
TEST(GridSweepClients, FullFeedbackLearningFindsTruthfulArm) {
  const CompBonusMechanism mechanism;
  const SystemConfig config(log_uniform_types(5, 47), 18.0);
  lbmv::strategy::LearningOptions options;
  options.rounds = 40;
  options.full_feedback = true;
  options.single_learner = 2;
  const auto result = lbmv::strategy::run_learning(mechanism, config, options);
  EXPECT_DOUBLE_EQ(result.final_bid_mult[2], 1.0);
  EXPECT_DOUBLE_EQ(result.final_exec_mult[2], 1.0);
  EXPECT_DOUBLE_EQ(result.truthful_fraction, 1.0);
}

}  // namespace
