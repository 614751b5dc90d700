// Differential tests for the O(1) single-deviation game engine: the
// closed-form profile context (Mechanism::make_profile_context) must agree
// with the reference context (Mechanism::make_reference_context, one
// mechanism run per deviation) to 1e-9 (relative) for every shipped
// payment rule, across random profiles, boundary bids at the
// search-interval edges, execution multipliers > 1, and long
// committed-deviation sequences (which exercise the periodic S/W rebuild).
// The committed round's outcome is one Mechanism::run_into on the
// context's profile, so it must equal Mechanism::run bit for bit on all
// three closed-form families.  Where a family has no closed form,
// make_profile_context returns the reference context, and a throwing query
// leaves the committed profile intact.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/system_config.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/strategy/best_response.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::ProfileUtilityContext;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;

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
/// sweeps, on \p allocator (the PR allocator by default).
std::unique_ptr<Mechanism> make_mechanism(
    int kind, std::shared_ptr<const lbmv::alloc::Allocator> allocator =
                  lbmv::core::default_allocator()) {
  switch (kind) {
    case 0:
      return std::make_unique<CompBonusMechanism>(std::move(allocator));
    case 1:
      return std::make_unique<CompBonusMechanism>(std::move(allocator),
                                                  CompensationBasis::kBid);
    case 2:
      return std::make_unique<VcgMechanism>(std::move(allocator));
    default:
      return std::make_unique<NoPaymentMechanism>(std::move(allocator));
  }
}

/// The mechanism's profile context (its closed form where one exists) at
/// \p profile, or with \p reference the reference context.
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

class DeviationDifferential : public ::testing::TestWithParam<int> {};

TEST_P(DeviationDifferential, IncrementalMatchesNaiveOnRandomDeviations) {
  const auto mechanism = make_mechanism(GetParam());
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    lbmv::util::Rng rng(seed * 193);
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 14));
    const SystemConfig config(log_uniform_types(n, seed), rng.uniform(2.0, 50.0));
    const BidProfile profile = random_profile(config, rng);

    const auto fast = context_at(*mechanism, config, profile);
    const auto naive = context_at(*mechanism, config, profile, true);
    ASSERT_TRUE(fast->closed_form());
    ASSERT_FALSE(naive->closed_form());

    for (int trial = 0; trial < 24; ++trial) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const double t = config.true_value(i);
      const double bid =
          t * std::exp(rng.uniform(std::log(0.05), std::log(20.0)));
      const double exec = t * rng.uniform(1.0, 3.0);
      expect_rel_near(fast->utility(i, bid, exec),
                      naive->utility(i, bid, exec), 1e-9,
                      mechanism->name().c_str());
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
  const auto fast = context_at(*mechanism, config, profile);
  const auto naive = context_at(*mechanism, config, profile, true);
  const double lo_mult = 0.05;
  const double hi_mult = 20.0;
  for (std::size_t i = 0; i < config.size(); ++i) {
    const double t = config.true_value(i);
    for (double bid_mult : {lo_mult, 1.0, hi_mult}) {
      for (double exec_mult : {1.0, 1.25, 2.0, 3.0}) {
        expect_rel_near(fast->utility(i, bid_mult * t, exec_mult * t),
                        naive->utility(i, bid_mult * t, exec_mult * t), 1e-9,
                        mechanism->name().c_str());
      }
    }
  }
}

TEST_P(DeviationDifferential, CommitSequenceStaysInAgreement) {
  // Hundreds of committed deviations at small n: the state each commit
  // re-derives from the profile must track the reference context to 1e-9 at
  // every step, not just at the end.
  const auto mechanism = make_mechanism(GetParam());
  lbmv::util::Rng rng(4242);
  const SystemConfig config(log_uniform_types(5, 23), 18.0);
  const BidProfile truthful = BidProfile::truthful(config);
  const auto fast = context_at(*mechanism, config, truthful);
  const auto naive = context_at(*mechanism, config, truthful, true);
  for (int step = 0; step < 400; ++step) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(config.size()) - 1));
    const double t = config.true_value(i);
    const double bid = t * std::exp(rng.uniform(std::log(0.2), std::log(5.0)));
    const double exec = t * rng.uniform(1.0, 2.0);
    fast->commit(i, bid, exec);
    naive->commit(i, bid, exec);
    if (step % 20 == 0) {
      // Both outcomes are one run on the committed profile; the context's
      // S/W state shows only in its utilities, so every agent's is checked
      // at its committed entries (against the round itself) and at the
      // truth.
      const MechanismOutcome committed =
          mechanism->run(config, fast->profile());
      EXPECT_EQ(committed.actual_latency,
                mechanism->run(config, naive->profile()).actual_latency)
          << "actual latency after commits";
      for (std::size_t j = 0; j < config.size(); ++j) {
        const double tj = config.true_value(j);
        const double bj = fast->profile().bids[j];
        const double ej = fast->profile().executions[j];
        expect_rel_near(fast->utility(j, bj, ej), committed.agents[j].utility,
                        1e-9, "utility at the committed entries");
        expect_rel_near(fast->utility(j, tj, tj), naive->utility(j, tj, tj),
                        1e-9, "utility after commits");
      }
    }
  }
  ASSERT_EQ(fast->profile().bids, naive->profile().bids);
  ASSERT_EQ(fast->profile().executions, naive->profile().executions);
}

TEST_P(DeviationDifferential, OutcomeIntoMatchesMechanismRun) {
  // One profile per closed-form family: linear PR, M/M/1 with every server
  // active and with idle servers, and the workload family.  Linear and
  // workload perturb every bid and execution (random_profile); M/M/1 keeps
  // truthful bids, so the idle count below stays fixed, and slows
  // executions by at most 20 % so no server overloads.
  struct Case {
    std::string name;
    std::shared_ptr<const lbmv::alloc::Allocator> allocator;
    SystemConfig config;
    bool truthful_bids;
    int idle;  ///< servers left idle (M/M/1), checked below
  };
  const auto mm1 = std::make_shared<const lbmv::model::MM1Family>();
  const auto mm1_alloc = std::make_shared<const lbmv::alloc::MM1Allocator>();
  const std::vector<double> mm1_types{0.1, 0.12, 0.15, 0.2, 0.3,
                                      0.45, 0.6, 0.8, 1.0};
  std::vector<Case> cases;
  cases.push_back({"linear", lbmv::core::default_allocator(),
                   SystemConfig(log_uniform_types(9, 31), 25.0), false, 0});
  cases.push_back({"mm1 all active", mm1_alloc,
                   SystemConfig({0.2, 0.22, 0.25, 0.28, 0.3, 0.33, 0.36, 0.4,
                                 0.45},
                                15.0, mm1),
                   true, 0});
  cases.push_back(
      {"mm1 idle servers", mm1_alloc, SystemConfig(mm1_types, 4.0, mm1), true,
       6});
  cases.push_back(
      {"workload", std::make_shared<const lbmv::alloc::WorkloadAllocator>(),
       SystemConfig(log_uniform_types(9, 31), 25.0,
                    std::make_shared<const lbmv::model::WorkloadFamily>(0.5)),
       false, 0});

  for (const Case& c : cases) {
    const auto mechanism = make_mechanism(GetParam(), c.allocator);
    lbmv::util::Rng rng(77);
    BidProfile profile = BidProfile::truthful(c.config);
    if (c.truthful_bids) {
      for (std::size_t i = 0; i < c.config.size(); ++i) {
        profile.executions[i] *= rng.uniform(1.0, 1.2);
      }
    } else {
      profile = random_profile(c.config, rng);
    }
    const auto context = context_at(*mechanism, c.config, profile);
    ASSERT_TRUE(context->closed_form()) << c.name;
    ASSERT_EQ(context->profile().bids, profile.bids) << c.name;
    ASSERT_EQ(context->profile().executions, profile.executions) << c.name;

    // The committed outcome is one run_into on the context's profile; the
    // second round runs on a warm workspace and outcome.
    lbmv::core::RoundWorkspace ws;
    MechanismOutcome committed;
    mechanism->run_into(c.config, context->profile(), committed, ws);
    mechanism->run_into(c.config, context->profile(), committed, ws);
    const MechanismOutcome reference = mechanism->run(c.config, profile);

    int idle = 0;
    for (std::size_t i = 0; i < reference.agents.size(); ++i) {
      idle += reference.allocation[i] == 0.0;
    }
    EXPECT_EQ(idle, c.idle) << c.name;
    EXPECT_EQ(committed.actual_latency, reference.actual_latency) << c.name;
    EXPECT_EQ(committed.reported_latency, reference.reported_latency)
        << c.name;
    ASSERT_EQ(committed.agents.size(), reference.agents.size()) << c.name;
    for (std::size_t i = 0; i < committed.agents.size(); ++i) {
      const auto& got = committed.agents[i];
      const auto& want = reference.agents[i];
      EXPECT_EQ(committed.allocation[i], reference.allocation[i]) << c.name;
      EXPECT_EQ(got.allocation, want.allocation) << c.name;
      EXPECT_EQ(got.compensation, want.compensation) << c.name;
      EXPECT_EQ(got.bonus, want.bonus) << c.name;
      EXPECT_EQ(got.payment, want.payment) << c.name;
      EXPECT_EQ(got.valuation, want.valuation) << c.name;
      EXPECT_EQ(got.utility, want.utility) << c.name;
    }
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
  const auto context = context_at(*mechanism, config, profile);
  const MechanismOutcome outcome = mechanism->run(config, context->profile());
  for (std::size_t i = 0; i < config.size(); ++i) {
    expect_rel_near(
        context->utility(i, profile.bids[i], profile.executions[i]),
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
  EXPECT_TRUE(context_at(vcg, config, profile)->closed_form());
  EXPECT_TRUE(context_at(none, config, profile)->closed_form());
}

TEST(ProfileContext, AgentContextAgreesWithFullRuns) {
  lbmv::util::Rng rng(55);
  const SystemConfig config(log_uniform_types(6, 3), 21.0);
  const BidProfile base = random_profile(config, rng);
  for (int kind = 0; kind < 4; ++kind) {
    const auto mechanism = make_mechanism(kind);
    const auto context = context_at(*mechanism, config, base);
    ASSERT_TRUE(context->closed_form()) << mechanism->name();
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
// Generic fallback path: no closed form, so make_profile_context returns
// the reference context.

TEST(DeviationFallback, NonLinearFamilyUsesScratchRuns) {
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.25, 1.0 / 3.0}, 4.0, family);
  const CompBonusMechanism mechanism(
      std::make_shared<lbmv::alloc::ConvexAllocator>());
  const BidProfile profile = BidProfile::truthful(config);
  const auto context = context_at(mechanism, config, profile);
  EXPECT_FALSE(context->closed_form());

  // Reference: Mechanism::run on a copy of the deviated profile.
  BidProfile candidate = profile;
  candidate.bids[1] = 0.3;
  candidate.executions[1] = 0.3;
  const double reference =
      mechanism.run(config, candidate).agents[1].utility;
  EXPECT_DOUBLE_EQ(context->utility(1, 0.3, 0.3), reference);

  // A query never changes the committed profile: evaluating a different
  // agent right away sees the original entries for agent 1.
  EXPECT_EQ(context->profile().bids, profile.bids);
  EXPECT_EQ(context->profile().executions, profile.executions);
  const double untouched =
      mechanism.run(config, profile).agents[0].utility;
  EXPECT_DOUBLE_EQ(
      context->utility(0, profile.bids[0], profile.executions[0]), untouched);
}

TEST(DeviationFallback, ThrowingQueryLeavesProfileIntact) {
  // Agent 1 executing at mu = 0.01 cannot absorb its share of R = 4, so the
  // round throws the M/M/1 domain error naming it.  The deviated entries
  // must not outlive the throw: the next query sees the committed profile.
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.25, 1.0 / 3.0}, 4.0, family);
  const CompBonusMechanism mechanism(
      std::make_shared<lbmv::alloc::ConvexAllocator>());
  const BidProfile profile = BidProfile::truthful(config);
  const auto context = context_at(mechanism, config, profile);
  ASSERT_FALSE(context->closed_form());

  try {
    (void)context->utility(1, 0.25, 100.0);
    ADD_FAILURE() << "overloaded execution did not throw";
  } catch (const lbmv::util::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("computer 1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(context->profile().bids, profile.bids);
  EXPECT_EQ(context->profile().executions, profile.executions);
  EXPECT_EQ(context->utility(0, 0.2, 0.2),
            mechanism.run(config, profile).agents[0].utility);
}

TEST(DeviationFallback, CommitsApplyToSubsequentQueries) {
  auto family = std::make_shared<lbmv::model::MM1Family>();
  const SystemConfig config({0.2, 0.25, 1.0 / 3.0}, 4.0, family);
  const CompBonusMechanism mechanism(
      std::make_shared<lbmv::alloc::ConvexAllocator>());
  const auto context =
      context_at(mechanism, config, BidProfile::truthful(config));
  context->commit(0, 0.24, 0.24);
  BidProfile expected = BidProfile::truthful(config);
  expected.bids[0] = 0.24;
  expected.executions[0] = 0.24;
  const double reference =
      mechanism.run(config, expected).agents[2].utility;
  EXPECT_DOUBLE_EQ(
      context->utility(2, expected.bids[2], expected.executions[2]),
      reference);
  EXPECT_EQ(context->profile().bids, expected.bids);
  EXPECT_EQ(context->profile().executions, expected.executions);
}

// ---------------------------------------------------------------------------
// Strategy counters: the closed form and the reference context count the
// same work — sweeps as grid evaluations, utility() calls as deviation
// evaluations — and differ only in the runs a closed form avoided.

/// Every strategy counter except mechanism_runs_avoided, right now.
std::vector<std::uint64_t> strategy_counts() {
  const auto snap = lbmv::obs::Registry::global().snapshot();
  std::vector<std::uint64_t> counts;
  for (const char* name :
       {"lbmv_strategy_deviation_evals_total", "lbmv_strategy_commits_total",
        "lbmv_strategy_grid_evals_total",
        "lbmv_strategy_grid_lanes_wasted_total"}) {
    const auto it = snap.counters.find(name);
    counts.push_back(it == snap.counters.end() ? 0 : it->second);
  }
  return counts;
}

TEST(DeviationCounters, AutoAndNaiveCountTheSameSweepTheSameWay) {
  if (!lbmv::obs::kCompiledIn) {
    GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)";
  }
  const bool was_enabled = lbmv::obs::enabled();
  lbmv::obs::set_enabled(true);
  const CompBonusMechanism mechanism;
  const SystemConfig config(log_uniform_types(6, 29), 18.0);
  const double t = config.true_value(2);
  // Whole 4-lane blocks: a closed-form lane sweep pads no tail lane, so
  // grid_lanes_wasted must agree too.
  std::vector<double> bids;
  for (int k = 0; k < 8; ++k) bids.push_back(t * (0.6 + 0.1 * k));
  std::vector<double> out(bids.size());
  std::vector<std::vector<std::uint64_t>> deltas;
  for (const bool reference : {false, true}) {
    const auto context = context_at(
        mechanism, config, BidProfile::truthful(config), reference);
    const std::vector<std::uint64_t> before = strategy_counts();
    (void)context->utility(1, 1.2 * config.true_value(1),
                           config.true_value(1));
    context->utilities_into(2, bids, t, out);
    (void)context->best_response(2, bids, 1.1 * t);
    context->commit(0, config.true_value(0), config.true_value(0));
    const std::vector<std::uint64_t> after = strategy_counts();
    std::vector<std::uint64_t> delta(after.size());
    for (std::size_t k = 0; k < after.size(); ++k) {
      delta[k] = after[k] - before[k];
    }
    deltas.push_back(delta);
  }
  lbmv::obs::set_enabled(was_enabled);
  EXPECT_EQ(deltas[0], deltas[1]);
  // One utility() query, two sweeps of 8 candidates, one commit.
  const std::vector<std::uint64_t> expected{1, 1, 16, 0};
  EXPECT_EQ(deltas[1], expected);
}

// ---------------------------------------------------------------------------
// Argument validation.

TEST(DeviationValidation, RejectsBadConstructionAndQueries) {
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  const CompBonusMechanism mechanism;
  // A profile that does not match the config, and one a mechanism cannot
  // run (a single agent), are rejected before any query.
  BidProfile short_profile;
  short_profile.bids = {1.0, 2.0};
  short_profile.executions = {1.0, 2.0};
  EXPECT_THROW((void)lbmv::strategy::best_response_dynamics(
                   mechanism, config, short_profile,
                   lbmv::strategy::BestResponseOptions{}),
               lbmv::util::PreconditionError);
  const BidProfile lone{{1.0}, {1.0}};
  for (const bool reference : {false, true}) {
    EXPECT_THROW((void)context_at(mechanism, config, lone, reference),
                 lbmv::util::PreconditionError);
  }

  const auto context =
      context_at(mechanism, config, BidProfile::truthful(config));
  EXPECT_THROW((void)context->utility(3, 1.0, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)context->utility(0, -1.0, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)context->utility(0, 1.0, 0.0),
               lbmv::util::PreconditionError);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)context->utility(0, inf, 1.0),
               lbmv::util::PreconditionError);
  EXPECT_THROW(context->commit(0, 1.0, inf), lbmv::util::PreconditionError);
  EXPECT_THROW(context->commit(5, 1.0, 1.0), lbmv::util::PreconditionError);
}

}  // namespace
