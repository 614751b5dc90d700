// Property tests for the game-theoretic audits: Theorem 3.1 (truthfulness)
// and Theorem 3.2 (voluntary participation), plus a precise documentation
// of the theorem's scope boundary (inconsistent opponents).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/analysis/paper_config.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/family_context.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/simd_round.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/latency.h"
#include "lbmv/obs/metrics.h"
#include "lbmv/obs/obs.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "lbmv/util/thread_pool.h"

namespace {

using lbmv::analysis::paper_table1_config;
using lbmv::core::AuditOptions;
using lbmv::core::CompBonusMechanism;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::TruthfulnessAuditor;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::SystemConfig;

TEST(Audit, PaperConfigCompBonusIsTruthfulForEveryAgent) {
  const SystemConfig config = paper_table1_config();
  CompBonusMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  for (const auto& report : auditor.audit_all(config)) {
    EXPECT_TRUE(report.truthful_dominant(1e-7))
        << "agent " << report.agent << " gains " << report.max_gain
        << " at bid x" << report.best.bid_mult << ", exec x"
        << report.best.exec_mult;
  }
}

TEST(Audit, VoluntaryParticipationHoldsOnPaperConfig) {
  const SystemConfig config = paper_table1_config();
  CompBonusMechanism mechanism;
  EXPECT_TRUE(voluntary_participation_holds(mechanism, config));
  for (double u : truthful_utilities(mechanism, config)) {
    EXPECT_GT(u, 0.0);  // strictly positive here: every computer contributes
  }
}

TEST(Audit, NoPaymentMechanismFailsTheAudit) {
  const SystemConfig config = paper_table1_config();
  NoPaymentMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  const auto report = auditor.audit_agent(config, 0);
  EXPECT_FALSE(report.truthful_dominant(1e-7));
  EXPECT_GT(report.max_gain, 0.0);
  EXPECT_GT(report.best.bid_mult, 1.0);  // the profitable lie is overbidding
}

TEST(Audit, KeepGridRetainsEveryDeviation) {
  const SystemConfig config({1.0, 2.0}, 4.0);
  CompBonusMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  AuditOptions options;
  options.keep_grid = true;
  options.parallel = false;
  const auto report = auditor.audit_agent(config, 0, options);
  EXPECT_EQ(report.grid.size(),
            options.bid_multipliers.size() * options.exec_multipliers.size());
}

TEST(Audit, ParallelAndSequentialAgree) {
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  CompBonusMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  AuditOptions seq;
  seq.parallel = false;
  AuditOptions par;
  par.parallel = true;
  const auto a = auditor.audit_agent(config, 1, seq);
  const auto b = auditor.audit_agent(config, 1, par);
  EXPECT_DOUBLE_EQ(a.truthful_utility, b.truthful_utility);
  EXPECT_DOUBLE_EQ(a.max_gain, b.max_gain);
}

TEST(Audit, RejectsSubCapacityExecutionMultipliers) {
  const SystemConfig config({1.0, 2.0}, 4.0);
  CompBonusMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  AuditOptions options;
  options.exec_multipliers = {0.5};
  EXPECT_THROW((void)auditor.audit_agent(config, 0, options),
               lbmv::util::PreconditionError);
}

TEST(Audit, TruthfulnessHoldsAgainstConsistentOverbiddingOpponents) {
  // Theorem 3.1 quantifies over all opposing *behaviours*; agents whose
  // execution equals their (over-)bid are realisable, and truth must remain
  // dominant against them.
  const SystemConfig config({1.0, 2.0, 5.0}, 12.0);
  CompBonusMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  BidProfile base = BidProfile::truthful(config);
  base.bids[1] = 4.0;  // opponent overbids ...
  base.executions[1] = 4.0;  // ... and consistently executes at the bid
  const auto report =
      auditor.audit_agent(config, 0, base, AuditOptions{});
  EXPECT_TRUE(report.truthful_dominant(1e-7))
      << "gain " << report.max_gain;
}

TEST(Audit, ScopeBoundary_InconsistentOpponentBreaksDominance) {
  // Documented limitation (see EXPERIMENTS.md): an *underbidding* opponent
  // is necessarily inconsistent (it cannot execute faster than its true
  // capacity), and against such behaviour truth-telling need not be a best
  // response — the agent can profitably re-balance the system.  This pins
  // the theorem's actual scope rather than the paper's informal statement.
  const SystemConfig config({1.0, 1.0}, 2.0);
  CompBonusMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  BidProfile base = BidProfile::truthful(config);
  base.bids[1] = 0.5;        // opponent claims to be twice as fast ...
  base.executions[1] = 1.0;  // ... but can only execute at its capacity
  AuditOptions options;
  options.bid_multipliers = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  const auto report = auditor.audit_agent(config, 0, base, options);
  EXPECT_GT(report.max_gain, 1e-6);
  EXPECT_LT(report.best.bid_mult, 1.0);  // best response shades the bid down
}

TEST(CoalitionAudit, PairsCanProfitablyColludeUnderCompBonus) {
  // Unilateral truthfulness does not extend to coalitions: two agents who
  // can share payments gain by mutually inflating bids (each inflates the
  // other's leave-one-out counterfactual).  Known VCG-family limitation,
  // quantified in bench_coalition.
  const SystemConfig config = paper_table1_config();
  CompBonusMechanism mechanism;
  lbmv::core::CoalitionAuditor auditor(mechanism);
  const auto report = auditor.audit_pair(config, 0, 1);
  EXPECT_FALSE(report.coalition_proof(1e-6));
  EXPECT_GT(report.max_joint_gain, 1.0);
  // Both partners overbid in the best deviation...
  EXPECT_GT(report.best.bid_mult_a, 1.0);
  EXPECT_GT(report.best.bid_mult_b, 1.0);
  // ... but neither slacks: verification closes the execution channel.
  EXPECT_DOUBLE_EQ(report.best.exec_mult_a, 1.0);
  EXPECT_DOUBLE_EQ(report.best.exec_mult_b, 1.0);
}

TEST(CoalitionAudit, JointTruthEqualsSumOfIndividualTruthfulUtilities) {
  const SystemConfig config({1.0, 2.0, 4.0}, 8.0);
  CompBonusMechanism mechanism;
  lbmv::core::CoalitionAuditor auditor(mechanism);
  const auto report = auditor.audit_pair(config, 0, 2);
  const auto utilities = truthful_utilities(mechanism, config);
  EXPECT_NEAR(report.truthful_joint_utility, utilities[0] + utilities[2],
              1e-10);
}

TEST(CoalitionAudit, ValidatesArguments) {
  const SystemConfig config({1.0, 2.0}, 4.0);
  CompBonusMechanism mechanism;
  lbmv::core::CoalitionAuditor auditor(mechanism);
  EXPECT_THROW((void)auditor.audit_pair(config, 0, 0),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)auditor.audit_pair(config, 0, 7),
               lbmv::util::PreconditionError);
  AuditOptions bad;
  bad.exec_multipliers = {0.5};
  EXPECT_THROW((void)auditor.audit_pair(config, 0, 1, bad),
               lbmv::util::PreconditionError);
}

TEST(CoalitionAudit, ParallelAndSequentialAgree) {
  const SystemConfig config({1.0, 2.0, 4.0}, 8.0);
  CompBonusMechanism mechanism;
  lbmv::core::CoalitionAuditor auditor(mechanism);
  AuditOptions seq;
  seq.parallel = false;
  AuditOptions par;
  par.parallel = true;
  const auto a = auditor.audit_pair(config, 0, 1, seq);
  const auto b = auditor.audit_pair(config, 0, 1, par);
  EXPECT_DOUBLE_EQ(a.max_joint_gain, b.max_joint_gain);
  EXPECT_DOUBLE_EQ(a.best.joint_utility, b.best.joint_utility);
}

// ---------------------------------------------------------------------------
// Malformed grids: rejected before any work, with one message naming the
// entry on every entry point and either incremental setting.

/// what() of the PreconditionError \p fn throws ("" and a failure if none).
template <class Fn>
std::string precondition_what(Fn fn) {
  try {
    fn();
  } catch (const lbmv::util::PreconditionError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no PreconditionError";
  return "";
}

TEST(AuditGrid, MalformedMultipliersRejectedUpFrontOnEveryPath) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const SystemConfig config({1.0, 2.0, 5.0, 10.0}, 20.0);
  CompBonusMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  lbmv::core::CoalitionAuditor coalition(mechanism);
  struct Bad {
    bool bid_grid;
    double value;
  };
  const std::vector<Bad> cases{{true, 0.0},   {true, -1.0}, {true, kNaN},
                               {true, kInf},  {false, kInf}, {false, kNaN},
                               {false, 0.5}};
  for (const Bad& bad : cases) {
    for (bool incremental : {true, false}) {
      AuditOptions options;
      options.incremental = incremental;
      options.parallel = false;
      // The bad entry sits at index 1 of its grid.
      if (bad.bid_grid) {
        options.bid_multipliers = {1.0, bad.value, 2.0};
      } else {
        options.exec_multipliers = {1.0, bad.value};
      }
      const std::string entry =
          bad.bid_grid ? "bid_multipliers[1]" : "exec_multipliers[1]";
      const std::string agent = precondition_what(
          [&] { (void)auditor.audit_agent(config, 2, options); });
      const std::string all =
          precondition_what([&] { (void)auditor.audit_all(config, options); });
      const std::string pair = precondition_what(
          [&] { (void)coalition.audit_pair(config, 0, 3, options); });
      EXPECT_NE(agent.find(entry), std::string::npos) << agent;
      EXPECT_EQ(all, agent);
      EXPECT_EQ(pair, agent);
      options.parallel = true;
      EXPECT_EQ(precondition_what(
                    [&] { (void)auditor.audit_all(config, options); }),
                agent);
    }
  }
}

// ---------------------------------------------------------------------------
// audit_all shares one profile context across agents: the reports must be
// those of a per-agent audit_agent loop, grid point for grid point.

void expect_same_reports(const std::vector<lbmv::core::AuditReport>& got,
                         const std::vector<lbmv::core::AuditReport>& want,
                         const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& g = got[i];
    const auto& w = want[i];
    EXPECT_EQ(g.agent, w.agent) << label;
    EXPECT_EQ(g.truthful_utility, w.truthful_utility)
        << label << " agent " << i;
    EXPECT_EQ(g.best.bid_mult, w.best.bid_mult) << label << " agent " << i;
    EXPECT_EQ(g.best.exec_mult, w.best.exec_mult) << label << " agent " << i;
    EXPECT_EQ(g.best.utility, w.best.utility) << label << " agent " << i;
    EXPECT_EQ(g.max_gain, w.max_gain) << label << " agent " << i;
    ASSERT_EQ(g.grid.size(), w.grid.size()) << label;
    for (std::size_t k = 0; k < w.grid.size(); ++k) {
      EXPECT_EQ(g.grid[k].bid_mult, w.grid[k].bid_mult) << label;
      EXPECT_EQ(g.grid[k].exec_mult, w.grid[k].exec_mult) << label;
      EXPECT_EQ(g.grid[k].utility, w.grid[k].utility)
          << label << " agent " << i << " grid point " << k;
    }
  }
}

struct SharedContextCase {
  std::string label;
  std::shared_ptr<const lbmv::core::Mechanism> mechanism;
  SystemConfig config;
  AuditOptions options;
};

std::vector<SharedContextCase> shared_context_cases() {
  std::vector<SharedContextCase> cases;
  const SystemConfig linear({0.7, 1.0, 2.0, 3.5, 5.0, 8.0, 13.0}, 9.0);
  AuditOptions linear_grid;
  linear_grid.keep_grid = true;
  const auto pr = std::make_shared<const lbmv::alloc::PRAllocator>();
  cases.push_back({"comp-bonus/execution",
                   std::make_shared<CompBonusMechanism>(), linear,
                   linear_grid});
  cases.push_back(
      {"comp-bonus/bid",
       std::make_shared<CompBonusMechanism>(
           pr, lbmv::core::CompensationBasis::kBid),
       linear, linear_grid});
  cases.push_back({"vcg", std::make_shared<VcgMechanism>(), linear,
                   linear_grid});
  cases.push_back({"no-payment", std::make_shared<NoPaymentMechanism>(),
                   linear, linear_grid});
  cases.push_back({"archer-tardos",
                   std::make_shared<lbmv::core::ArcherTardosMechanism>(),
                   linear, linear_grid});

  AuditOptions nonlinear_grid;
  nonlinear_grid.bid_multipliers = {0.85, 0.9, 1.0, 1.2, 1.5, 2.0, 3.0};
  nonlinear_grid.exec_multipliers = {1.0, 1.1, 1.2};
  nonlinear_grid.keep_grid = true;
  // M/M/1 at 10 % load: about half the servers idle, so the grid's
  // edited-order queries both keep and drop the deviator's server.
  const std::vector<double> service{0.1, 0.12, 0.2, 0.3, 0.45,
                                    0.6, 0.8, 0.9, 1.0};
  double capacity = 0.0;
  for (double t : service) capacity += 1.0 / t;
  cases.push_back(
      {"mm1 comp-bonus",
       std::make_shared<CompBonusMechanism>(
           std::make_shared<const lbmv::alloc::MM1Allocator>()),
       SystemConfig(service, 0.1 * capacity,
                    std::make_shared<const lbmv::model::MM1Family>()),
       nonlinear_grid});
  cases.push_back(
      {"workload comp-bonus",
       std::make_shared<CompBonusMechanism>(
           std::make_shared<const lbmv::alloc::WorkloadAllocator>()),
       SystemConfig({1.0, 1.5, 2.5, 4.0, 7.0}, 10.0,
                    std::make_shared<const lbmv::model::WorkloadFamily>(0.5)),
       nonlinear_grid});
  return cases;
}

TEST(AuditSharedContext, AuditAllEqualsPerAgentLoopAtAnyThreadCount) {
  for (const SharedContextCase& c : shared_context_cases()) {
    const TruthfulnessAuditor auditor(*c.mechanism);
    AuditOptions serial = c.options;
    serial.parallel = false;
    std::vector<lbmv::core::AuditReport> per_agent;
    for (std::size_t i = 0; i < c.config.size(); ++i) {
      per_agent.push_back(auditor.audit_agent(c.config, i, serial));
    }
    expect_same_reports(auditor.audit_all(c.config, serial), per_agent,
                        c.label + " serial");
    AuditOptions parallel = c.options;
    parallel.parallel = true;
    for (std::size_t threads : {1u, 2u, 8u}) {
      lbmv::util::ThreadPool pool(threads);
      expect_same_reports(auditor.audit_all(c.config, parallel, pool),
                          per_agent,
                          c.label + " threads=" + std::to_string(threads));
    }
  }
}

TEST(AuditSharedContext, EvaluationCounterCountsEveryAgentsGrid) {
  if (!lbmv::obs::kCompiledIn) {
    GTEST_SKIP() << "probes compiled out (LBMV_OBS=0)";
  }
  const auto evaluations = [] {
    const auto snap = lbmv::obs::Registry::global().snapshot();
    const auto it = snap.counters.find("lbmv_mech_audit_evaluations_total");
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  lbmv::obs::set_enabled(true);
  for (const SharedContextCase& c : shared_context_cases()) {
    const TruthfulnessAuditor auditor(*c.mechanism);
    const std::uint64_t per_agent =
        c.options.bid_multipliers.size() * c.options.exec_multipliers.size() +
        1;
    for (bool parallel : {false, true}) {
      AuditOptions options = c.options;
      options.parallel = parallel;
      const std::uint64_t before = evaluations();
      (void)auditor.audit_all(c.config, options);
      EXPECT_EQ(evaluations() - before, c.config.size() * per_agent)
          << c.label << " parallel=" << parallel;
    }
  }
  lbmv::obs::set_enabled(false);
}

TEST(AuditSharedContext, ContextConstructorErrorSurfacesUnchanged) {
  // Without computer 0 (mu = 10) the rest capacity 2 cannot absorb R = 5,
  // so the M/M/1 context's leave-one-out plane throws at construction.  The
  // shared context must raise exactly what a per-agent audit (one context
  // per agent) and the constructor itself raise.
  const SystemConfig config({0.1, 1.0, 1.0}, 5.0,
                            std::make_shared<const lbmv::model::MM1Family>());
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const TruthfulnessAuditor auditor(mechanism);
  const std::string direct = precondition_what([&] {
    (void)lbmv::core::Mm1PrProfileContext(
        lbmv::core::PaymentRule::kCompBonusExecution, 5.0,
        BidProfile::truthful(config));
  });
  EXPECT_NE(direct.find("without computer 0"), std::string::npos) << direct;
  for (bool parallel : {false, true}) {
    AuditOptions options;
    options.parallel = parallel;
    EXPECT_EQ(precondition_what(
                  [&] { (void)auditor.audit_agent(config, 1, options); }),
              direct);
    EXPECT_EQ(
        precondition_what([&] { (void)auditor.audit_all(config, options); }),
        direct);
  }
}

// ---------------------------------------------------------------------------
// Full-mechanism audits above the shard threshold.  From 2^16 agents every
// fused linear round shards its agent axis over the global pool, and the
// audits fan their grids out on that same pool, so each round's shard loop
// runs from inside a pool worker.  It must run inline there, not queue
// work that no free worker is left to run.

SystemConfig sharded_config() {
  const std::size_t n = lbmv::core::kAutoShardMinAgents;
  lbmv::util::Rng rng(91);
  std::vector<double> t(n);
  for (double& ti : t) ti = std::exp(rng.uniform(std::log(0.5), std::log(5.0)));
  return SystemConfig(std::move(t), 0.25 * static_cast<double>(n));
}

AuditOptions two_by_two_grid() {
  AuditOptions options;
  options.bid_multipliers = {0.5, 2.0};
  options.exec_multipliers = {1.0, 1.5};
  return options;
}

TEST(AuditShardedRounds, FullMechanismAgentAuditFinishesAndMatchesSerial) {
  const SystemConfig config = sharded_config();
  const CompBonusMechanism mechanism;
  const TruthfulnessAuditor auditor(mechanism);
  AuditOptions parallel = two_by_two_grid();
  parallel.incremental = false;
  parallel.keep_grid = true;
  AuditOptions serial = parallel;
  serial.parallel = false;
  const auto got = auditor.audit_agent(config, 7, parallel);
  const auto want = auditor.audit_agent(config, 7, serial);
  EXPECT_EQ(got.truthful_utility, want.truthful_utility);
  EXPECT_EQ(got.max_gain, want.max_gain);
  ASSERT_EQ(got.grid.size(), 4u);
  for (std::size_t k = 0; k < got.grid.size(); ++k) {
    EXPECT_EQ(got.grid[k].utility, want.grid[k].utility) << "point " << k;
  }
  EXPECT_TRUE(got.truthful_dominant(1e-7)) << got.max_gain;
}

TEST(AuditShardedRounds, CoalitionAuditFinishesAndMatchesSerial) {
  const SystemConfig config = sharded_config();
  const CompBonusMechanism mechanism;
  const lbmv::core::CoalitionAuditor auditor(mechanism);
  const AuditOptions parallel = two_by_two_grid();
  AuditOptions serial = parallel;
  serial.parallel = false;
  const auto got = auditor.audit_pair(config, 3, 9, parallel);
  const auto want = auditor.audit_pair(config, 3, 9, serial);
  EXPECT_EQ(got.truthful_joint_utility, want.truthful_joint_utility);
  EXPECT_EQ(got.max_joint_gain, want.max_joint_gain);
  EXPECT_EQ(got.best.bid_mult_a, want.best.bid_mult_a);
  EXPECT_EQ(got.best.bid_mult_b, want.best.bid_mult_b);
}

// ---------------------------------------------------------------------------
// Parameterized property sweep over random instances.

class RandomSystemAudit : public ::testing::TestWithParam<std::uint64_t> {};

SystemConfig random_config(std::uint64_t seed, std::size_t min_n = 2,
                           std::size_t max_n = 10) {
  lbmv::util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(min_n), static_cast<std::int64_t>(max_n)));
  std::vector<double> t(n);
  for (double& ti : t) {
    ti = std::exp(rng.uniform(std::log(0.2), std::log(20.0)));
  }
  return SystemConfig(std::move(t), rng.uniform(1.0, 60.0));
}

TEST_P(RandomSystemAudit, CompBonusTruthfulAndVoluntary) {
  const SystemConfig config = random_config(GetParam());
  CompBonusMechanism mechanism;
  EXPECT_TRUE(voluntary_participation_holds(mechanism, config, 1e-8));
  TruthfulnessAuditor auditor(mechanism);
  for (std::size_t agent = 0; agent < config.size(); ++agent) {
    const auto report = auditor.audit_agent(config, agent);
    EXPECT_TRUE(report.truthful_dominant(1e-7))
        << "seed " << GetParam() << " agent " << agent << " gains "
        << report.max_gain;
  }
}

TEST_P(RandomSystemAudit, VcgTruthfulInBidsAndVoluntary) {
  const SystemConfig config = random_config(GetParam());
  VcgMechanism mechanism;
  EXPECT_TRUE(voluntary_participation_holds(mechanism, config, 1e-8));
  TruthfulnessAuditor auditor(mechanism);
  AuditOptions options;
  options.exec_multipliers = {1.0};  // VCG's guarantee covers bids only
  for (std::size_t agent = 0; agent < config.size(); ++agent) {
    const auto report = auditor.audit_agent(config, agent, options);
    EXPECT_TRUE(report.truthful_dominant(1e-7))
        << "seed " << GetParam() << " agent " << agent;
  }
}

TEST_P(RandomSystemAudit, NoPaymentAlwaysManipulable) {
  const SystemConfig config = random_config(GetParam(), 3, 10);
  NoPaymentMechanism mechanism;
  TruthfulnessAuditor auditor(mechanism);
  const auto report = auditor.audit_agent(config, 0);
  EXPECT_GT(report.max_gain, 0.0) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystemAudit,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
