// Suite for the reference context (Mechanism::make_reference_context): the
// one run-per-deviation oracle.  Its utility() must equal Mechanism::run on
// the deviated profile bit for bit, its sweeps must equal a loop of its own
// utility() calls, and through the same ProfileUtilityContext API
// (utility, utilities_into, best_response, commit_batch) it must agree with
// every closed-form context to 1e-9.  Where no closed form exists (M/M/1
// under the generic convex allocator, Archer–Tardos off the linear family)
// it is the only context, and it raises the mechanism's own errors.
// Concurrent queries must match a serial loop bit for bit.  Every round's
// published utility is the closed-form context's at the committed entries,
// and the linear closed form rejects the deviations the round rejects —
// the deviator's and the fastest opponent's — with the round's message,
// and answers what the round answers around an agent holding almost all
// of S.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lbmv/alloc/convex_allocator.h"
#include "lbmv/core/archer_tardos.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/util/error.h"
#include "mechanism_cases.h"

namespace {

using lbmv::core::BidDelta;
using lbmv::core::GridBest;
using lbmv::core::Mechanism;
using lbmv::core::ProfileUtilityContext;
using lbmv::model::BidProfile;
using lbmv::model::LatencyFamily;
using lbmv_test::all_cases;
using lbmv_test::band_types;
using lbmv_test::Case;

/// Utility of \p agent at \p base with its entries replaced, from one
/// Mechanism::run — what the reference context must return exactly.
double run_utility(const Mechanism& mechanism, const LatencyFamily& family,
                   double rate, BidProfile profile, std::size_t agent,
                   double bid, double execution) {
  profile.bids[agent] = bid;
  profile.executions[agent] = execution;
  return mechanism.run(family, rate, profile).agents[agent].utility;
}

void expect_close(double got, double want, const std::string& what) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::fabs(want))) << what;
}

/// Candidate bids around agent \p i's committed bid, kept inside the band
/// all_cases keeps feasible (x [0.8, 1.2]).
std::vector<double> candidates(const BidProfile& profile, std::size_t i) {
  std::vector<double> bids;
  for (double m = 0.85; m < 1.2; m += 0.05) bids.push_back(m * profile.bids[i]);
  return bids;
}

/// Hold \p ref to \p closed (and to Mechanism::run) on every agent through
/// utility, utilities_into and best_response at the committed profile.
void expect_contexts_agree(const Case& c, const ProfileUtilityContext& ref,
                           const ProfileUtilityContext& closed,
                           const std::string& what) {
  const BidProfile& profile = ref.profile();
  ASSERT_EQ(profile.bids, closed.profile().bids) << what;
  ASSERT_EQ(profile.executions, closed.profile().executions) << what;
  for (std::size_t i = 0; i < profile.size(); ++i) {
    const std::string at = what + " agent " + std::to_string(i);
    const double e = profile.executions[i] * 1.03;
    const double u = ref.utility(i, profile.bids[i] * 0.9, e);
    EXPECT_EQ(u, run_utility(*c.mechanism, *c.family, c.arrival_rate, profile,
                             i, profile.bids[i] * 0.9, e))
        << at;
    expect_close(closed.utility(i, profile.bids[i] * 0.9, e), u, at);

    const std::vector<double> bids = candidates(profile, i);
    std::vector<double> ref_row(bids.size());
    std::vector<double> closed_row(bids.size());
    ref.utilities_into(i, bids, e, ref_row);
    closed.utilities_into(i, bids, e, closed_row);
    GridBest scan{0, ref_row[0]};
    for (std::size_t k = 0; k < bids.size(); ++k) {
      EXPECT_EQ(ref_row[k], ref.utility(i, bids[k], e)) << at << " k=" << k;
      expect_close(closed_row[k], ref_row[k], at + " k=" + std::to_string(k));
      if (ref_row[k] > scan.utility) scan = {k, ref_row[k]};
    }
    const GridBest ref_best = ref.best_response(i, bids, e);
    EXPECT_EQ(ref_best.index, scan.index) << at;
    EXPECT_EQ(ref_best.utility, scan.utility) << at;
    // The closed form's winner is a maximiser of the reference row too.
    const GridBest closed_best = closed.best_response(i, bids, e);
    expect_close(closed_best.utility, ref_best.utility, at);
    expect_close(ref_row[closed_best.index], ref_best.utility, at);
  }
}

TEST(ReferenceContext, AgreesWithEveryClosedFormThroughTheSameApi) {
  const std::size_t n = 12;
  for (const Case& c : all_cases(n, 71)) {
    const auto types = band_types(n, 71);
    const BidProfile base{types, types};
    const auto closed =
        c.mechanism->make_profile_context(*c.family, c.arrival_rate, base);
    ASSERT_TRUE(closed->closed_form()) << c.name;
    const auto ref =
        c.mechanism->make_reference_context(*c.family, c.arrival_rate, base);
    EXPECT_FALSE(ref->closed_form()) << c.name;
    EXPECT_FALSE(ref->lane_sweeps()) << c.name;
    expect_contexts_agree(c, *ref, *closed, c.name + " base");

    // The same commits through both contexts keep them in agreement.
    lbmv::util::Rng rng(5);
    for (int round = 0; round < 3; ++round) {
      std::vector<BidDelta> batch;
      for (std::size_t k = 0; k < 3; ++k) {
        const auto i = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        batch.push_back({i, types[i] * rng.uniform(0.9, 1.1),
                         types[i] * rng.uniform(1.0, 1.04)});
      }
      ref->commit_batch(batch);
      closed->commit_batch(batch);
      expect_contexts_agree(c, *ref, *closed,
                            c.name + " round " + std::to_string(round));
    }
  }
}

// One payoff per rule: the utility a round publishes is the closed-form
// context's utility() at the committed entries.  Where the family's round
// and context terms share operand order the two are equal; elsewhere the
// terms differ by reassociated sums (the fused totals, the contexts' O(1)
// running sums), measured at <= 2.2e-14 relative to max(1, |U|); the bound
// is 1e-12.
TEST(ReferenceContext, RoundUtilityIsTheContextsAtTheCommittedEntries) {
  constexpr double kBound = 1e-12;
  double worst = 0.0;
  const std::size_t sizes[] = {2, 5, 12, 33};
  for (const std::size_t n : sizes) {
    for (const Case& c : all_cases(n, 90 + n)) {
      // Both read the same solve's rates, leave-one-out plane and reported
      // optimum, and neither reads the verified total.
      const bool exact =
          c.name == "vcg/workload" || c.name == "no_payment/workload";
      const auto types = band_types(n, 90 + n);
      lbmv::util::Rng rng(n);
      BidProfile deviated{types, types};
      for (std::size_t i = 0; i < n; ++i) {
        deviated.bids[i] *= rng.uniform(0.8, 1.2);
        deviated.executions[i] *= rng.uniform(1.0, 1.05);
      }
      for (const BidProfile& profile : {BidProfile{types, types}, deviated}) {
        const auto out = c.mechanism->run(*c.family, c.arrival_rate, profile);
        const auto ctx = c.mechanism->make_profile_context(
            *c.family, c.arrival_rate, profile);
        ASSERT_TRUE(ctx->closed_form()) << c.name;
        for (std::size_t i = 0; i < n; ++i) {
          const double round = out.agents[i].utility;
          const double query =
              ctx->utility(i, profile.bids[i], profile.executions[i]);
          if (exact) {
            EXPECT_EQ(round, query) << c.name << " n=" << n << " agent " << i;
          } else {
            const double err =
                std::fabs(round - query) / std::max(1.0, std::fabs(round));
            worst = std::max(worst, err);
            EXPECT_LE(err, kBound) << c.name << " n=" << n << " agent " << i;
          }
        }
      }
    }
  }
  RecordProperty("max_rel_err", std::to_string(worst));
}

/// M/M/1 under the generic convex allocator: no fused engine, so no closed
/// form either.
struct ConvexMm1 {
  std::shared_ptr<const LatencyFamily> family =
      std::make_shared<const lbmv::model::MM1Family>();
  lbmv::core::CompBonusMechanism mechanism{
      std::make_shared<const lbmv::alloc::ConvexAllocator>()};
  std::vector<double> types{0.2, 0.25, 1.0 / 3.0, 0.5};
  double rate = 4.0;
};

TEST(ReferenceContext, IsTheOnlyContextForMm1UnderTheConvexAllocator) {
  const ConvexMm1 s;
  BidProfile profile{s.types, s.types};
  const auto ref = s.mechanism.make_profile_context(*s.family, s.rate, profile);
  EXPECT_FALSE(ref->closed_form());
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < profile.size(); ++i) {
      const std::string at =
          "round " + std::to_string(round) + " agent " + std::to_string(i);
      const double e = profile.executions[i];
      std::vector<double> bids = candidates(profile, i);
      std::vector<double> row(bids.size());
      ref->utilities_into(i, bids, e, row);
      GridBest scan{0, row[0]};
      for (std::size_t k = 0; k < bids.size(); ++k) {
        EXPECT_EQ(row[k], run_utility(s.mechanism, *s.family, s.rate, profile,
                                      i, bids[k], e))
            << at << " k=" << k;
        if (row[k] > scan.utility) scan = {k, row[k]};
      }
      const GridBest best = ref->best_response(i, bids, e);
      EXPECT_EQ(best.index, scan.index) << at;
      EXPECT_EQ(best.utility, scan.utility) << at;
    }
    // Commits only write the committed profile; later queries see them.
    const BidDelta move{1, s.types[1] * 1.1, s.types[1] * 1.02};
    ref->commit_batch(std::span(&move, 1));
    profile.bids[1] = move.bid;
    profile.executions[1] = move.execution;
    EXPECT_EQ(ref->profile().bids, profile.bids);
    EXPECT_EQ(ref->profile().executions, profile.executions);
  }
}

TEST(ReferenceContext, RaisesTheMechanismsOwnErrorForArcherTardosOnMm1) {
  // The Archer–Tardos payment tail is derived for linear latencies only:
  // no closed form on M/M/1, and a run there raises the mechanism's own
  // precondition, which the reference context passes through unchanged.
  const lbmv::core::ArcherTardosMechanism mechanism;
  const auto family = std::make_shared<const lbmv::model::MM1Family>();
  const BidProfile base{{0.2, 0.25, 0.5}, {0.2, 0.25, 0.5}};
  const auto ref = mechanism.make_profile_context(*family, 2.0, base);
  EXPECT_FALSE(ref->closed_form());
  std::string want;
  try {
    (void)run_utility(mechanism, *family, 2.0, base, 1, 0.3, 0.3);
    ADD_FAILURE() << "Archer–Tardos ran on M/M/1";
  } catch (const lbmv::util::PreconditionError& e) {
    want = e.what();
  }
  EXPECT_NE(want.find("Archer"), std::string::npos) << want;
  try {
    (void)ref->utility(1, 0.3, 0.3);
    ADD_FAILURE() << "reference context did not throw";
  } catch (const lbmv::util::PreconditionError& e) {
    EXPECT_EQ(std::string(e.what()), want);
  }
}

TEST(ReferenceContext, RejectsInvalidDeviationsLikeEveryContext) {
  const ConvexMm1 s;
  const auto ref = s.mechanism.make_reference_context(
      *s.family, s.rate, BidProfile{s.types, s.types});
  EXPECT_THROW((void)ref->utility(9, 0.2, 0.2), lbmv::util::PreconditionError);
  EXPECT_THROW((void)ref->utility(0, -1.0, 0.2),
               lbmv::util::PreconditionError);
  EXPECT_THROW((void)ref->utility(0, 0.2, std::nan("")),
               lbmv::util::PreconditionError);
  const BidDelta bad{0, 0.2, 0.0};
  EXPECT_THROW(ref->commit_batch(std::span(&bad, 1)),
               lbmv::util::PreconditionError);
  EXPECT_EQ(ref->profile().executions, s.types);
}

/// what() of the PreconditionError \p fn throws ("" if none).
template <class Fn>
std::string precondition_what(Fn fn) {
  try {
    fn();
  } catch (const lbmv::util::PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(ReferenceContext, LinearClosedFormRejectsWhatTheRoundRejects) {
  // Agent 0 deviating to a bid so fast that S' - 1/b cancels: the round at
  // the deviated profile raises the leave-one-out cancellation guard under
  // the rules that read L_{-i} and the Archer–Tardos positive-capacity
  // check, so the closed form must raise the same message on every entry
  // point.  No-payment reads neither and answers in both contexts.
  const lbmv::model::LinearFamily family;
  BidProfile base;
  for (int i = 0; i < 16; ++i) {
    base.bids.push_back(0.5 + 0.37 * ((7 * i) % 13));
  }
  base.executions = base.bids;
  int rules = 0;
  for (const Case& c : all_cases(4, 1)) {
    if (c.name.find("/linear") == std::string::npos) continue;
    ++rules;
    SCOPED_TRACE(c.name);
    const bool answers = c.name == "no_payment/linear";
    const auto closed = c.mechanism->make_profile_context(family, 20.0, base);
    const auto ref = c.mechanism->make_reference_context(family, 20.0, base);
    ASSERT_TRUE(closed->closed_form());
    for (const double bid : {1e-200, 1e-300}) {
      SCOPED_TRACE("bid " + std::to_string(bid));
      const std::string want =
          precondition_what([&] { (void)ref->utility(0, bid, 1.0); });
      EXPECT_EQ(want.empty(), answers) << want;
      if (!answers) {
        EXPECT_TRUE(want.find("(agent 0 of 16)") != std::string::npos ||
                    want.find("positive capacity (agent 0)") !=
                        std::string::npos)
            << want;
      }
      EXPECT_EQ(precondition_what([&] { (void)closed->utility(0, bid, 1.0); }),
                want);
      // The bid in a full lane block and in the padded tail block.
      for (const std::vector<double>& grid :
           {std::vector<double>{1.0, 2.0, bid, 3.0, 4.0},
            std::vector<double>{1.0, 2.0, 3.0, 4.0, bid}}) {
        std::vector<double> closed_row(grid.size());
        std::vector<double> ref_row(grid.size());
        EXPECT_EQ(precondition_what([&] {
                    closed->utilities_into(0, grid, 1.0, closed_row);
                  }),
                  want);
        EXPECT_EQ(precondition_what(
                      [&] { ref->utilities_into(0, grid, 1.0, ref_row); }),
                  want);
        GridBest closed_best;
        GridBest ref_best;
        EXPECT_EQ(precondition_what([&] {
                    closed_best = closed->best_response(0, grid, 1.0);
                  }),
                  want);
        EXPECT_EQ(precondition_what(
                      [&] { ref_best = ref->best_response(0, grid, 1.0); }),
                  want);
        if (!answers) continue;
        for (std::size_t k = 0; k < grid.size(); ++k) {
          expect_close(closed_row[k], ref_row[k], "k=" + std::to_string(k));
        }
        EXPECT_EQ(closed_best.index, ref_best.index);
        expect_close(closed_best.utility, ref_best.utility, "best");
      }
    }
  }
  EXPECT_EQ(rules, 5);
}

TEST(ReferenceContext, LinearClosedFormGuardsTheFastestOpponent) {
  // Agent 1 committed at bid 1e-200 carries all of S, so when agent 0
  // deviates to (1, 1) the round at the deviated profile rejects agent 1's
  // rest S' - 1/b_1, not agent 0's.  The closed form must raise that same
  // message on every entry point, whether agent 1 came with the base
  // profile or by a commit.
  const lbmv::model::LinearFamily family;
  BidProfile base;
  for (int i = 0; i < 16; ++i) {
    base.bids.push_back(0.5 + 0.37 * ((7 * i) % 13));
  }
  base.executions = base.bids;
  BidProfile fast = base;
  fast.bids[1] = 1e-200;
  fast.executions[1] = 1e-200;
  const std::vector<double> lane_grid{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> tail_grid{1.0, 2.0, 3.0, 4.0, 5.0};
  int rules = 0;
  for (const Case& c : all_cases(4, 1)) {
    if (c.name.find("/linear") == std::string::npos) continue;
    ++rules;
    SCOPED_TRACE(c.name);
    const bool answers = c.name == "no_payment/linear";
    const auto ref = c.mechanism->make_reference_context(family, 20.0, fast);
    const auto built = c.mechanism->make_profile_context(family, 20.0, fast);
    auto committed = c.mechanism->make_profile_context(family, 20.0, base);
    committed->commit(1, 1e-200, 1e-200);
    const std::string want =
        precondition_what([&] { (void)ref->utility(0, 1.0, 1.0); });
    EXPECT_EQ(want.empty(), answers) << want;
    if (!answers) {
      EXPECT_TRUE(want.find("(agent 1 of 16)") != std::string::npos ||
                  want.find("positive capacity (agent 1)") !=
                      std::string::npos)
          << want;
    }
    for (const ProfileUtilityContext* closed : {built.get(), committed.get()}) {
      ASSERT_TRUE(closed->closed_form());
      EXPECT_EQ(closed->profile().bids, fast.bids);
      EXPECT_EQ(precondition_what([&] { (void)closed->utility(0, 1.0, 1.0); }),
                want);
      for (const std::vector<double>& grid : {lane_grid, tail_grid}) {
        std::vector<double> row(grid.size());
        EXPECT_EQ(precondition_what(
                      [&] { closed->utilities_into(0, grid, 1.0, row); }),
                  want);
        EXPECT_EQ(precondition_what(
                      [&] { (void)closed->best_response(0, grid, 1.0); }),
                  want);
      }
      if (answers) {
        expect_close(closed->utility(0, 1.0, 1.0), ref->utility(0, 1.0, 1.0),
                     "agent 0");
      }
    }
    // Agents 1, 2 and 3 at inverse bids 1e14, 1e13 and 1e12: the context
    // lists agents 1 and 2 as the two fastest.  Once agent 1 slows down,
    // agent 3 is agent 2's fastest opponent, and when agent 2 deviates to
    // (1, 1) the round rejects agent 3's rest.  The context must rescan to
    // see it.
    BidProfile tiered = base;
    for (const auto& [agent, bid] :
         {std::pair{1, 1e-14}, std::pair{2, 1e-13}, std::pair{3, 1e-12}}) {
      tiered.bids[agent] = bid;
      tiered.executions[agent] = bid;
    }
    auto moved = c.mechanism->make_profile_context(family, 20.0, tiered);
    moved->commit(1, base.bids[1], base.executions[1]);
    const auto ref_moved =
        c.mechanism->make_reference_context(family, 20.0, moved->profile());
    const std::string want_moved =
        precondition_what([&] { (void)ref_moved->utility(2, 1.0, 1.0); });
    if (c.name.find("comp_bonus") != std::string::npos ||
        c.name == "vcg/linear") {
      EXPECT_NE(want_moved.find("(agent 3 of 16)"), std::string::npos)
          << want_moved;
    }
    EXPECT_EQ(precondition_what([&] { (void)moved->utility(2, 1.0, 1.0); }),
              want_moved);
  }
  EXPECT_EQ(rules, 5);
}

TEST(ReferenceContext, LinearClosedFormAnswersAroundADominantAgent) {
  // Agent 1 at bid 1e-200 holds almost all of S, so S - 1/b_1 cancels.
  // (a) After agent 1 commits there and back, agent 0's deviation to (1, 1)
  // reads the restored profile's sums, not what the cancellation left.
  // (b) Agent 1's own deviation to (1, 1) reads its rest, summed from the
  // profile.  Every rule answers both in the reference context, and the
  // closed form must agree on every entry point.
  const lbmv::model::LinearFamily family;
  BidProfile base;
  for (int i = 0; i < 16; ++i) {
    base.bids.push_back(0.5 + 0.37 * ((7 * i) % 13));
  }
  base.executions = base.bids;
  BidProfile fast = base;
  fast.bids[1] = 1e-200;
  fast.executions[1] = 1e-200;
  // A full lane block and a padded tail, with the query bid 1.0 in each.
  const std::vector<double> grid{0.5, 0.75, 1.0, 1.25, 1.5, 1.0};
  const auto expect_rel = [](double got, double want, const std::string& what) {
    EXPECT_NEAR(got, want, 1e-12 * std::fabs(want)) << what;
  };
  const auto expect_agree = [&](const ProfileUtilityContext& closed,
                                const ProfileUtilityContext& ref,
                                std::size_t agent, const std::string& what) {
    ASSERT_TRUE(closed.closed_form()) << what;
    ASSERT_EQ(closed.profile().bids, ref.profile().bids) << what;
    expect_rel(closed.utility(agent, 1.0, 1.0), ref.utility(agent, 1.0, 1.0),
               what + " utility");
    std::vector<double> closed_row(grid.size());
    std::vector<double> ref_row(grid.size());
    closed.utilities_into(agent, grid, 1.0, closed_row);
    ref.utilities_into(agent, grid, 1.0, ref_row);
    for (std::size_t k = 0; k < grid.size(); ++k) {
      expect_rel(closed_row[k], ref_row[k], what + " k=" + std::to_string(k));
    }
    const GridBest closed_best = closed.best_response(agent, grid, 1.0);
    const GridBest ref_best = ref.best_response(agent, grid, 1.0);
    EXPECT_EQ(closed_best.index, ref_best.index) << what;
    expect_rel(closed_best.utility, ref_best.utility, what + " best");
  };
  int rules = 0;
  for (const Case& c : all_cases(4, 1)) {
    if (c.name.find("/linear") == std::string::npos) continue;
    ++rules;
    SCOPED_TRACE(c.name);
    auto round_trip = c.mechanism->make_profile_context(family, 20.0, base);
    round_trip->commit(1, 1e-200, 1e-200);
    round_trip->commit(1, base.bids[1], base.executions[1]);
    const auto ref = c.mechanism->make_reference_context(family, 20.0, base);
    expect_agree(*round_trip, *ref, 0, "(a) agent 0");

    const auto ref_fast =
        c.mechanism->make_reference_context(family, 20.0, fast);
    const auto built = c.mechanism->make_profile_context(family, 20.0, fast);
    auto committed = c.mechanism->make_profile_context(family, 20.0, base);
    committed->commit(1, 1e-200, 1e-200);
    expect_agree(*built, *ref_fast, 1, "(b) built, agent 1");
    expect_agree(*committed, *ref_fast, 1, "(b) committed, agent 1");
  }
  EXPECT_EQ(rules, 5);
}

TEST(ReferenceContext, ConcurrentQueriesMatchASerialLoopBitForBit) {
  // Each query runs on its own thread's workspace, so queries from several
  // threads at once must give exactly what one thread gives in a loop.
  const ConvexMm1 mm1;
  const std::size_t n = 16;
  const auto types = band_types(n, 83);
  const Case linear = all_cases(n, 83).front();
  struct Target {
    const Mechanism* mechanism;
    const LatencyFamily* family;
    double rate;
    BidProfile base;
  };
  const std::vector<Target> targets = {
      {linear.mechanism.get(), linear.family.get(), linear.arrival_rate,
       BidProfile{types, types}},
      {&mm1.mechanism, mm1.family.get(), mm1.rate,
       BidProfile{mm1.types, mm1.types}},
  };
  for (const Target& t : targets) {
    const auto ref =
        t.mechanism->make_reference_context(*t.family, t.rate, t.base);
    const std::size_t agents = t.base.size();
    const std::size_t per_agent = 24;
    const auto bid_of = [&](std::size_t q) {
      return t.base.bids[q / per_agent] *
             (0.9 + 0.01 * static_cast<double>(q % per_agent));
    };
    const std::size_t queries = agents * per_agent;
    std::vector<double> serial(queries);
    for (std::size_t q = 0; q < queries; ++q) {
      const std::size_t i = q / per_agent;
      serial[q] = ref->utility(i, bid_of(q), t.base.executions[i]);
    }
    constexpr std::size_t kThreads = 4;
    std::vector<double> concurrent(queries);
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        for (std::size_t q = w; q < queries; q += kThreads) {
          const std::size_t i = q / per_agent;
          concurrent[q] = ref->utility(i, bid_of(q), t.base.executions[i]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t q = 0; q < queries; ++q) {
      EXPECT_EQ(concurrent[q], serial[q]) << "query " << q;
    }
  }
}

}  // namespace
