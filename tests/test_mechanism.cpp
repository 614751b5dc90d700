// Tests for Mechanism as an (allocator, PaymentRule) pair: the table every
// shipped mechanism's name and properties are read from, and the reference
// path's pricing held to each rule's algebra written out by hand.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/alloc/pr_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/rule_terms.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"

namespace {

using lbmv::core::AgentOutcome;
using lbmv::core::ArcherTardosMechanism;
using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::PaymentRule;
using lbmv::core::RoundWorkspace;
using lbmv::core::VcgMechanism;

static_assert(std::has_virtual_destructor_v<Mechanism>);

struct Row {
  std::string name;
  bool verification;
  bool participation;
  PaymentRule rule;
};

void expect_row(const Mechanism& m, const Row& row) {
  EXPECT_EQ(m.name(), row.name);
  EXPECT_EQ(m.uses_verification(), row.verification) << row.name;
  EXPECT_EQ(m.guarantees_voluntary_participation(), row.participation)
      << row.name;
  EXPECT_EQ(m.payment_rule(), row.rule) << row.name;
}

TEST(MechanismTable, PinsEveryShippedMechanism) {
  const auto convex = std::make_shared<const lbmv::alloc::ConvexAllocator>();
  const CompBonusMechanism execution;
  const CompBonusMechanism execution_convex(convex);
  const CompBonusMechanism bid(lbmv::core::default_allocator(),
                               CompensationBasis::kBid);
  const Row comp_bonus{"comp-bonus", true, true,
                       PaymentRule::kCompBonusExecution};
  expect_row(execution, comp_bonus);
  expect_row(execution_convex, comp_bonus);
  expect_row(bid, {"comp-bonus(bid-compensation)", true, true,
                   PaymentRule::kCompBonusBid});
  EXPECT_EQ(execution.basis(), CompensationBasis::kExecution);
  EXPECT_EQ(execution_convex.basis(), CompensationBasis::kExecution);
  EXPECT_EQ(bid.basis(), CompensationBasis::kBid);

  const Row vcg{"vcg", false, true, PaymentRule::kVcg};
  expect_row(VcgMechanism(), vcg);
  expect_row(VcgMechanism(convex), vcg);
  const Row no_payment{"no-payment", false, false, PaymentRule::kNoPayment};
  expect_row(NoPaymentMechanism(), no_payment);
  expect_row(NoPaymentMechanism(convex), no_payment);
  expect_row(ArcherTardosMechanism(),
             {"archer-tardos", false, true, PaymentRule::kArcherTardos});
}

/// a within 1e-12 of e, relative to |e| (exact when e is 0).
void expect_rel(double a, double e, const char* what, std::size_t i) {
  EXPECT_NEAR(a, e, 1e-12 * std::fabs(e)) << what << " of agent " << i;
}

TEST(ReferenceRuleAlgebra, EveryRuleMatchesItsTermsWrittenOut) {
  // A linear profile where agent 1 bids 2.6 but executes at 3.1.  Each
  // rule's record is written out from the PR allocation x_i = R / (b_i S),
  // the PR optimum without agent i (the allocator's optimal_latency on the
  // rest), and the costs t x^2 — none of it through the round's pricing.
  const lbmv::model::LinearFamily linear;
  const lbmv::alloc::PRAllocator pr;
  const double rate = 20.0;
  const std::vector<double> bids{1.0, 2.6, 5.0, 10.0};
  const std::vector<double> execs{1.0, 3.1, 5.0, 10.0};
  const std::size_t n = bids.size();

  double s = 0.0;
  for (double b : bids) s += 1.0 / b;
  std::vector<double> x(n), loo(n), rest_capacity(n);
  double actual = 0.0;
  double reported = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rate / (bids[i] * s);
    actual += execs[i] * x[i] * x[i];
    reported += bids[i] * x[i] * x[i];
    std::vector<double> rest;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) rest.push_back(bids[j]);
    }
    loo[i] = pr.optimal_latency(linear, rest, rate);
    rest_capacity[i] = 0.0;
    for (double b : rest) rest_capacity[i] += 1.0 / b;
  }

  const auto expected = [&](PaymentRule rule, std::size_t i) {
    const double own_exec = execs[i] * x[i] * x[i];
    const double own_bid = bids[i] * x[i] * x[i];
    AgentOutcome a;
    a.allocation = x[i];
    a.valuation = -own_exec;
    switch (rule) {
      case PaymentRule::kCompBonusExecution:
        a.compensation = own_exec;
        a.bonus = loo[i] - actual;
        break;
      case PaymentRule::kCompBonusBid:
        a.compensation = own_bid;
        a.bonus = loo[i] - actual;
        break;
      case PaymentRule::kVcg:
        a.compensation = own_bid;
        a.bonus = loo[i] - reported;
        break;
      case PaymentRule::kArcherTardos: {
        const double sr = rest_capacity[i];
        a.compensation = own_bid;
        a.bonus = rate * rate / (sr * (1.0 + bids[i] * sr));
        break;
      }
      case PaymentRule::kNoPayment:
        break;
    }
    a.payment = a.compensation + a.bonus;
    a.utility = a.payment + a.valuation;
    return a;
  };

  const CompBonusMechanism comp_bonus;
  const CompBonusMechanism comp_bonus_bid(lbmv::core::default_allocator(),
                                          CompensationBasis::kBid);
  const VcgMechanism vcg;
  const NoPaymentMechanism no_payment;
  const ArcherTardosMechanism archer_tardos;
  for (const Mechanism* m :
       std::vector<const Mechanism*>{&comp_bonus, &comp_bonus_bid, &vcg,
                                     &no_payment, &archer_tardos}) {
    SCOPED_TRACE(m->name());
    MechanismOutcome out;
    RoundWorkspace ws;
    m->run_reference_into(linear, rate, bids, execs, out, ws);
    expect_rel(out.actual_latency, actual, "L(x, t~)", 0);
    expect_rel(out.reported_latency, reported, "L(x, b)", 0);
    ASSERT_EQ(out.agents.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const AgentOutcome e = expected(m->payment_rule(), i);
      const AgentOutcome& a = out.agents[i];
      expect_rel(a.allocation, e.allocation, "x", i);
      expect_rel(a.compensation, e.compensation, "C", i);
      expect_rel(a.bonus, e.bonus, "B", i);
      expect_rel(a.payment, e.payment, "P", i);
      expect_rel(a.valuation, e.valuation, "V", i);
      expect_rel(a.utility, e.utility, "U", i);
      if (m->payment_rule() == PaymentRule::kCompBonusExecution) {
        // The compensation cancels the valuation exactly (Theorem 3.1).
        EXPECT_EQ(a.utility, a.bonus) << "agent " << i;
      }
    }
  }
}

/// The PreconditionError messages of run_into and run_reference_into on two
/// agents bidding 1e-300 at R = 1e160, where R^2 and x^2 overflow while the
/// allocation stays finite (empty where a path published instead).
std::array<std::string, 2> overflow_messages(const Mechanism& m) {
  const lbmv::model::LinearFamily linear;
  const std::vector<double> types{1e-300, 1e-300};
  const double rate = 1e160;
  RoundWorkspace ws;
  MechanismOutcome out;
  std::array<std::string, 2> what;
  for (int path = 0; path < 2; ++path) {
    try {
      if (path == 0) {
        m.run_into(linear, rate, types, types, out, ws);
      } else {
        m.run_reference_into(linear, rate, types, types, out, ws);
      }
      ADD_FAILURE() << m.name() << " published P_0 = "
                    << out.agents[0].payment;
    } catch (const lbmv::util::PreconditionError& e) {
      what[path] = e.what();
    }
  }
  return what;
}

// L_{-i} = R^2 / (S - 1/b_i) overflows, so every rule that reads it throws
// the leave-one-out site's diagnostic naming the agent on both paths
// instead of publishing an infinite bonus.  No-payment reads no L_{-i} and
// still prices the round.
TEST(LeaveOneOutOverflow, EveryRuleThatReadsItThrowsOnBothPaths) {
  const std::shared_ptr<const Mechanism> reading[] = {
      std::make_shared<CompBonusMechanism>(),
      std::make_shared<CompBonusMechanism>(lbmv::core::default_allocator(),
                                           CompensationBasis::kBid),
      std::make_shared<VcgMechanism>()};
  for (const auto& m : reading) {
    ASSERT_TRUE(lbmv::core::reads_leave_one_out(m->payment_rule()));
    const auto what = overflow_messages(*m);
    EXPECT_NE(what[0].find("overflows the double range (agent 0 of 2)"),
              std::string::npos)
        << m->name() << ": " << what[0];
    EXPECT_EQ(what[0], what[1]) << m->name();
  }
  const lbmv::model::LinearFamily linear;
  const std::vector<double> types{1e-300, 1e-300};
  RoundWorkspace ws;
  MechanismOutcome out;
  NoPaymentMechanism().run_into(linear, 1e160, types, types, out, ws);
  for (const AgentOutcome& agent : out.agents) {
    EXPECT_TRUE(std::isfinite(agent.utility));
  }
}

// Archer–Tardos reads no L_{-i}, but its terms b x^2 and the tail
// R^2/(s(1 + b s)) overflow: the fused engine declines the round, and the
// reference path's finite check names the agent instead of publishing inf.
TEST(ArcherTardosOverflow, BothPathsThrowTheSameMessageNamingTheAgent) {
  const auto what = overflow_messages(ArcherTardosMechanism());
  EXPECT_NE(what[0].find("payment or utility is not finite: agent 0"),
            std::string::npos)
      << what[0];
  EXPECT_EQ(what[0], what[1]);
}

}  // namespace
