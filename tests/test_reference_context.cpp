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
// and around an agent holding almost all of S — the deviator or an
// opponent — the linear closed form prices what the round prices.

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

/// Agent \p agent's comp-bonus (execution) utility U = L_{-i} - L(x, e) at
/// \p p from direct long-double sums, the oracle for profiles where
/// S - 1/b_i cancels, and the larger of its two terms, which scales every
/// error: U may itself cancel.
struct DirectSums {
  double comp_bonus;
  double scale;
};

DirectSums direct_sums(const BidProfile& p, std::size_t agent, double rate) {
  long double s = 0.0L;
  long double w = 0.0L;
  long double rest = 0.0L;
  for (std::size_t j = 0; j < p.size(); ++j) {
    const long double inv = 1.0L / p.bids[j];
    s += inv;
    w += p.executions[j] * inv * inv;
    if (j != agent) rest += inv;
  }
  const long double rr = static_cast<long double>(rate) * rate;
  const long double loo = rr / rest;
  const long double latency = rr * w / (s * s);
  return {static_cast<double>(loo - latency),
          static_cast<double>(std::max(loo, latency))};
}

/// Hold the linear closed form \p closed to the reference context \p ref
/// for \p agent deviating to \p bid at execution 1, on utility() and on
/// both sweeps with the bid in a full lane block and in the padded tail
/// block, to 1e-13 of direct_sums' scale; comp-bonus also to direct_sums.
void expect_priced(const Case& c, const ProfileUtilityContext& closed,
                   const ProfileUtilityContext& ref, std::size_t agent,
                   double bid) {
  ASSERT_TRUE(closed.closed_form());
  ASSERT_EQ(closed.profile().bids, ref.profile().bids);
  const auto sums = [&](double b) {
    BidProfile deviated = ref.profile();
    deviated.bids[agent] = b;
    deviated.executions[agent] = 1.0;
    return direct_sums(deviated, agent, c.arrival_rate);
  };
  const DirectSums at_bid = sums(bid);
  const double tol = 1e-13 * at_bid.scale;
  const double u = ref.utility(agent, bid, 1.0);
  EXPECT_EQ(u, run_utility(*c.mechanism, *c.family, c.arrival_rate,
                           ref.profile(), agent, bid, 1.0));
  EXPECT_NEAR(closed.utility(agent, bid, 1.0), u, tol);
  if (c.name == "comp_bonus_exec/linear") {
    EXPECT_NEAR(u, at_bid.comp_bonus, tol);
  }
  for (const std::vector<double>& grid :
       {std::vector<double>{1.0, 2.0, bid, 3.0, 4.0},
        std::vector<double>{1.0, 2.0, 3.0, 4.0, bid}}) {
    std::vector<double> closed_row(grid.size());
    std::vector<double> ref_row(grid.size());
    closed.utilities_into(agent, grid, 1.0, closed_row);
    ref.utilities_into(agent, grid, 1.0, ref_row);
    double row_tol = 0.0;
    for (std::size_t k = 0; k < grid.size(); ++k) {
      const double k_tol = 1e-13 * sums(grid[k]).scale;
      row_tol = std::max(row_tol, k_tol);
      EXPECT_NEAR(closed_row[k], ref_row[k], k_tol) << "k=" << k;
    }
    // The closed form's winner is a maximiser of the reference row too.
    const GridBest closed_best = closed.best_response(agent, grid, 1.0);
    const GridBest ref_best = ref.best_response(agent, grid, 1.0);
    EXPECT_NEAR(closed_best.utility, ref_best.utility, row_tol);
    EXPECT_NEAR(ref_row[closed_best.index], ref_best.utility, row_tol);
  }
}

/// The 16-agent linear profile the dominant-agent cases perturb.
BidProfile spread_profile() {
  BidProfile base;
  for (int i = 0; i < 16; ++i) {
    base.bids.push_back(0.5 + 0.37 * ((7 * i) % 13));
  }
  base.executions = base.bids;
  return base;
}

TEST(ReferenceContext, LinearClosedFormPricesADominantDeviator) {
  // Agent 0 deviating to a bid so fast that S' - 1/b would cancel 12 or 15
  // of its 16 digits, or all of them: the round sums that rest from the
  // others (alloc::pr_rest_at), and the closed form reads it off the
  // committed profile.  Below about 1e-154, 1/b^2 overflows and (R/S')^2
  // underflows, so the closed form must price L' without forming either.
  // Every rule answers on every entry point, and the two agree.
  const BidProfile base = spread_profile();
  int rules = 0;
  for (const Case& c : all_cases(4, 1)) {
    if (c.name.find("/linear") == std::string::npos) continue;
    ++rules;
    SCOPED_TRACE(c.name);
    const auto closed =
        c.mechanism->make_profile_context(*c.family, c.arrival_rate, base);
    const auto ref =
        c.mechanism->make_reference_context(*c.family, c.arrival_rate, base);
    for (const double bid : {1e-12, 1e-15, 1e-200, 1e-300}) {
      SCOPED_TRACE("bid " + std::to_string(bid));
      expect_priced(c, *closed, *ref, 0, bid);
    }
  }
  EXPECT_EQ(rules, 5);
}

TEST(ReferenceContext, LinearClosedFormPricesOpponentsOfADominantAgent) {
  // Agent 1 committed at bid 1e-100 or 1e-200 carries all of S, so when
  // agent 0 deviates the round sums agent 1's rest from the others.  Agent
  // 0's utility reads only its own rest, so every rule answers, whether
  // agent 1 came with the base profile or by a commit.  At 1e-200,
  // (R/S)^2 = 4e-398 is below the double range while L = 4e-198 is not:
  // the round sums L per agent, and the closed form must not form (R/S)^2.
  const BidProfile base = spread_profile();
  int rules = 0;
  for (const Case& c : all_cases(4, 1)) {
    if (c.name.find("/linear") == std::string::npos) continue;
    ++rules;
    SCOPED_TRACE(c.name);
    const double rate = c.arrival_rate;
    for (const double fast_bid : {1e-100, 1e-200}) {
      SCOPED_TRACE("agent 1 at " + std::to_string(fast_bid));
      BidProfile fast = base;
      fast.bids[1] = fast_bid;
      fast.executions[1] = fast_bid;
      const auto ref =
          c.mechanism->make_reference_context(*c.family, rate, fast);
      const auto built =
          c.mechanism->make_profile_context(*c.family, rate, fast);
      auto committed = c.mechanism->make_profile_context(*c.family, rate, base);
      committed->commit(1, fast_bid, fast_bid);
      expect_priced(c, *built, *ref, 0, 1.0);
      expect_priced(c, *committed, *ref, 0, 1.0);
    }
    // Agents 1, 2 and 3 at inverse bids 1e14, 1e13 and 1e12: agent 1 holds
    // the largest 1/b_j.  Once it slows down, agent 3's 1e12 is the largest
    // term after agent 2 deviates, so the round sums agent 3's rest; agent
    // 2's own rest is then S - 1/b_2 of the committed profile, which the
    // context must re-derive on commit.
    BidProfile tiered = base;
    for (const auto& [agent, bid] :
         {std::pair{1, 1e-14}, std::pair{2, 1e-13}, std::pair{3, 1e-12}}) {
      tiered.bids[agent] = bid;
      tiered.executions[agent] = bid;
    }
    auto moved = c.mechanism->make_profile_context(*c.family, rate, tiered);
    moved->commit(1, base.bids[1], base.executions[1]);
    const auto ref_moved =
        c.mechanism->make_reference_context(*c.family, rate, moved->profile());
    expect_priced(c, *moved, *ref_moved, 2, 1.0);
    expect_priced(c, *moved, *ref_moved, 2, 1e-13);
  }
  EXPECT_EQ(rules, 5);
}

TEST(ReferenceContext, LinearClosedFormAnswersAroundADominantAgent) {
  // Agent 1 at bid 1e-200 holds almost all of S, so S - 1/b_1 cancels.
  // (a) After agent 1 commits there and back, agent 0's deviation to (1, 1)
  // reads the restored profile's sums, not what the cancellation left.
  // (b) Agent 1's own deviation to (1, 1) reads its rest, which rebuild()
  // sums without it.  Every rule answers both in the reference context, and
  // the closed form must agree on every entry point.
  const lbmv::model::LinearFamily family;
  const BidProfile base = spread_profile();
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
