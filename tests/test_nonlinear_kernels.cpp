// Differential and boundary suite for the fused nonlinear-family kernels
// (core/family_round.h, core/family_context.h, DESIGN.md §14).
//
// Contracts under test:
//   * Capacity boundaries surface as typed PreconditionErrors — infeasible
//     R >= sum mu, the near-saturation cancellation guard, leave-one-out
//     subsystems that cannot absorb the load (naming the offending agent),
//     and execution-side overload x_i >= mu~_i — identically on the fused
//     engines (run_into) and the reference path (run_reference_into).
//   * Invalid inputs (non-positive, NaN or infinite bids, executions or
//     arrival rate) throw the shared input check's error naming the agent;
//     finite inputs never publish a non-finite outcome.
//   * The workload-family Newton solve agrees with a long-double bisection
//     oracle on the KKT multiplier to 1e-9 relative.
//   * Fused rounds agree with the reference virtual-dispatch path to 1e-9
//     relative across both families, every payment rule, and lane-tail
//     sizes.
//   * The M/M/1 context's deviation query agrees with a from-scratch
//     re-solve (1e-12) and with Mechanism::run (1e-9) from all-active
//     profiles to 90 % idle servers, including deviations that move the
//     deviator or its sorted neighbours across the active-set threshold;
//     the gates it leaves to the re-solve keep their exact messages.
//   * The M/M/1 context's sweep (ProfileUtilityContext::utilities_into /
//     best_response) is bit-identical to its scalar utility(), and
//     audit_all grids are bit-identical parallel vs serial; both families
//     stay truthful-dominant under audit_all.
//
// The whole file runs under the ASan/UBSan and LBMV_SIMD=OFF CI legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "lbmv/alloc/mm1_allocator.h"
#include "lbmv/alloc/workload_allocator.h"
#include "lbmv/core/audit.h"
#include "lbmv/core/batch.h"
#include "lbmv/core/comp_bonus.h"
#include "lbmv/core/delta_engine.h"
#include "lbmv/core/family_context.h"
#include "lbmv/core/family_round.h"
#include "lbmv/core/mechanism.h"
#include "lbmv/core/no_payment.h"
#include "lbmv/core/vcg.h"
#include "lbmv/model/bids.h"
#include "lbmv/model/latency.h"
#include "lbmv/model/system_config.h"
#include "lbmv/strategy/grid.h"
#include "lbmv/util/error.h"
#include "lbmv/util/rng.h"
#include "nonlinear_oracles.h"

namespace {

using lbmv::core::CompBonusMechanism;
using lbmv::core::CompensationBasis;
using lbmv::core::Mechanism;
using lbmv::core::MechanismOutcome;
using lbmv::core::NoPaymentMechanism;
using lbmv::core::RoundWorkspace;
using lbmv::core::VcgMechanism;
using lbmv::model::BidProfile;
using lbmv::model::MM1Family;
using lbmv::model::SystemConfig;
using lbmv::model::WorkloadFamily;
using lbmv::util::PreconditionError;

/// Both round entry points every boundary must hold on.
enum class Path { kReference, kDispatched };

/// One round through \p path: the reference path, or run_into (the fused
/// engine on exact-allocator rounds).
void run_path(Path path, const Mechanism& mechanism,
              const lbmv::model::LatencyFamily& family, double rate,
              std::span<const double> bids, std::span<const double> execs,
              MechanismOutcome& out, RoundWorkspace& ws) {
  if (path == Path::kReference) {
    mechanism.run_reference_into(family, rate, bids, execs, out, ws);
  } else {
    mechanism.run_into(family, rate, bids, execs, out, ws);
  }
}

/// Mean service times with mu = 1/theta in [1, 2]: at arrival rates up to
/// roughly half the total capacity every computer stays active in the full
/// set and all leave-one-out subsystems.  Idle-server profiles, which the
/// fused M/M/1 engine serves too, are covered in test_nonlinear_loo.cpp.
std::vector<double> narrow_types(std::size_t n, std::uint64_t seed) {
  lbmv::util::Rng rng(seed);
  std::vector<double> t(n);
  for (double& ti : t) ti = rng.uniform(0.5, 1.0);
  return t;
}

double sum_mu(std::span<const double> thetas) {
  double s = 0.0;
  for (double t : thetas) s += 1.0 / t;
  return s;
}

/// Half the capacity of the weakest leave-one-out subsystem: feasible (with
/// 2x slack) in the full set and every rest set, down to n = 2.
double feasible_rate(std::span<const double> thetas) {
  double max_mu = 0.0;
  for (double t : thetas) max_mu = std::max(max_mu, 1.0 / t);
  return 0.5 * (sum_mu(thetas) - max_mu);
}

/// Every mechanism the fused engines serve, bound to \p allocator.
std::vector<std::unique_ptr<Mechanism>> family_mechanisms(
    const std::shared_ptr<const lbmv::alloc::Allocator>& allocator) {
  std::vector<std::unique_ptr<Mechanism>> ms;
  ms.push_back(std::make_unique<CompBonusMechanism>(allocator));
  ms.push_back(
      std::make_unique<CompBonusMechanism>(allocator, CompensationBasis::kBid));
  ms.push_back(std::make_unique<VcgMechanism>(allocator));
  ms.push_back(std::make_unique<NoPaymentMechanism>(allocator));
  return ms;
}

double rel_err(double a, double b) {
  return std::fabs(a - b) / std::max(1.0, std::fabs(b));
}

double outcome_rel_err(const MechanismOutcome& a, const MechanismOutcome& b) {
  EXPECT_EQ(a.agents.size(), b.agents.size());
  double err = rel_err(a.actual_latency, b.actual_latency);
  err = std::max(err, rel_err(a.reported_latency, b.reported_latency));
  for (std::size_t i = 0; i < a.agents.size(); ++i) {
    err = std::max(err, rel_err(a.allocation[i], b.allocation[i]));
    err = std::max(err, rel_err(a.agents[i].compensation,
                                b.agents[i].compensation));
    err = std::max(err, rel_err(a.agents[i].bonus, b.agents[i].bonus));
    err = std::max(err, rel_err(a.agents[i].payment, b.agents[i].payment));
    err = std::max(err, rel_err(a.agents[i].utility, b.agents[i].utility));
  }
  return err;
}

// ---------------------------------------------------------------------------
// Capacity boundaries: typed PreconditionErrors on both paths.

TEST(Mm1Boundary, InfeasibleArrivalRateThrowsTypedOnBothPaths) {
  const MM1Family family;
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const std::vector<double> thetas{0.5, 0.5, 1.0};  // sum mu = 5
  RoundWorkspace ws;
  MechanismOutcome out;
  for (Path path : {Path::kReference, Path::kDispatched}) {
    for (double rate : {5.0, 7.5}) {  // R == sum mu and R > sum mu
      EXPECT_THROW(
          run_path(path, mechanism, family, rate, thetas, thetas, out, ws),
          PreconditionError)
          << "rate " << rate;
    }
  }
}

TEST(Mm1Boundary, NearSaturationCancellationGuardThrowsTyped) {
  // R within 1e-9 of sum mu: the closed form would return only cancelled
  // digits, so the allocator refuses instead of returning noise.
  const std::vector<double> mus{2.0, 2.0, 1.0};
  std::vector<double> rates(mus.size());
  const double total = 5.0;
  EXPECT_THROW(
      (void)lbmv::alloc::mm1_solve_into(mus, total * (1.0 - 1e-12), rates),
      PreconditionError);
  // Just outside the guard the solve succeeds.
  EXPECT_NO_THROW(
      (void)lbmv::alloc::mm1_solve_into(mus, total * (1.0 - 1e-6), rates));
}

TEST(Mm1Boundary, LeaveOneOutOverloadNamesTheOffendingAgent) {
  // Removing the dominant computer 0 (mu = 10) leaves capacity 2 < R = 5:
  // the leave-one-out subsystem is infeasible and the error must say whose
  // departure caused it.
  const MM1Family family;
  const lbmv::alloc::MM1Allocator allocator;
  const std::vector<double> thetas{0.1, 1.0, 1.0};
  std::vector<double> loo;
  try {
    allocator.leave_one_out_into(family, thetas, 5.0, loo);
    FAIL() << "infeasible leave-one-out subsystem did not throw";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("without computer 0"),
              std::string::npos)
        << e.what();
  }
}

TEST(Mm1Boundary, ExecutionOverloadThrowsTypedOnBothPaths) {
  using lbmv::core::PaymentRule;
  using lbmv::core::Mm1PrProfileContext;
  // Underbid-and-slack: computer 0 bids fast (mu = 10) but executes slow
  // (mu~ = 1).  Its assignment x_0 approaches the bid capacity from below —
  // far beyond the *actual* capacity, x_0 >= mu~_0 — so the actual-latency
  // pass must throw the one domain diagnostic on both paths (the fused
  // engine raises it itself), and so must a deviation query to the same
  // (bid, execution) from the truthful profile (the edited-order path).
  const MM1Family family;
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const std::vector<double> bids{0.1, 0.5, 0.5};
  const std::vector<double> execs{1.0, 0.5, 0.5};
  const std::string expected =
      "M/M/1 latency requires 0 <= x < mu: computer 0 is assigned x = "
      "7.88854 against execution service rate mu = 1";
  RoundWorkspace ws;
  MechanismOutcome out;
  const auto what = [](auto fn) {
    try {
      fn();
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("(no error)");
  };
  for (Path path : {Path::kReference, Path::kDispatched}) {
    EXPECT_EQ(what([&] {
                run_path(path, mechanism, family, 10.0, bids, execs, out, ws);
              }),
              expected);
  }
  EXPECT_EQ(what([&] {
              (void)lbmv::core::run_mm1_vectorized(
                  PaymentRule::kCompBonusExecution, 10.0, bids, execs, out,
                  ws);
            }),
            expected);
  // No-payment: computer 0's leave-one-out subsystem cannot absorb R.
  const Mm1PrProfileContext context(PaymentRule::kNoPayment, 10.0,
                                    BidProfile{bids, bids});
  EXPECT_EQ(what([&] { (void)context.utility(0, 0.1, 1.0); }), expected);
}

/// Runs \p fn and expects the typed M/M/1 domain error naming \p agent.
template <class Fn>
void expect_domain_error_names(Fn fn, std::size_t agent) {
  try {
    fn();
    ADD_FAILURE() << "execution overload did not throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("0 <= x < mu"), std::string::npos) << what;
    EXPECT_NE(what.find("computer " + std::to_string(agent) + " "),
              std::string::npos)
        << what;
  }
}

TEST(Mm1Boundary, ExecutionOverloadNamesTheAgentAtEverySite) {
  using lbmv::core::PaymentRule;
  using lbmv::core::Mm1PrProfileContext;
  // Committed profile: computer 2 bids mu = 10 but executes at mu~ = 1 and
  // is assigned x_2 ~ 7.9 > 1 (the context's rebuild).
  expect_domain_error_names(
      [] {
        Mm1PrProfileContext(PaymentRule::kCompBonusExecution, 10.0,
                            BidProfile{{0.5, 0.5, 0.1}, {0.5, 0.5, 1.0}});
      },
      2);
  // Deviations by computer 1 against a uniform profile, both through the
  // edited-order query: a moderate speed-up keeps everyone active, a large
  // one drops the rest out.
  const Mm1PrProfileContext context(
      PaymentRule::kCompBonusExecution, 2.0,
      BidProfile{{0.5, 0.5, 0.5, 0.5}, {0.5, 0.5, 0.5, 0.5}});
  expect_domain_error_names([&] { (void)context.utility(1, 0.3, 1.0); }, 1);
  expect_domain_error_names([&] { (void)context.utility(1, 0.1, 1.0); }, 1);

  // The delta engine's cached round: all-active and active-set profiles.
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const auto family = std::make_shared<const MM1Family>();
  for (double fast_bid : {0.3, 0.1}) {
    lbmv::core::DeltaRoundEngine engine(
        mechanism, family, 2.0,
        BidProfile{{0.5, 0.5, fast_bid}, {0.5, 0.5, 1.0}});
    expect_domain_error_names([&] { (void)engine.outcome(); }, 2);
  }
}

// ---------------------------------------------------------------------------
// The M/M/1 context's idle-aware deviation query.

using lbmv::core::PaymentRule;
using lbmv::core::Mm1PrProfileContext;

/// The deviated round re-solved from scratch: \p agent's utility when it
/// bids \p bid and executes at \p execution against \p base, with
/// L_{-agent} from the rest set's own solve.  Raises the allocator's and
/// the domain check's typed errors like the context's full re-solve.
double mm1_resolve_utility(PaymentRule rule, double rate,
                           const BidProfile& base, std::size_t agent,
                           double bid, double execution) {
  const std::size_t n = base.size();
  std::vector<double> mus(n);
  std::vector<double> rest;
  for (std::size_t j = 0; j < n; ++j) {
    mus[j] = 1.0 / (j == agent ? bid : base.bids[j]);
    if (j != agent) rest.push_back(1.0 / base.bids[j]);
  }
  std::vector<double> x(n);
  const lbmv::alloc::Mm1Solve solve =
      lbmv::alloc::mm1_solve_into(mus, rate, x);
  double actual = 0.0;
  double cost_e = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (x[j] == 0.0) continue;
    const double mu_e = 1.0 / (j == agent ? execution : base.executions[j]);
    const double de = mu_e - x[j];
    if (!(de > 0.0)) lbmv::alloc::throw_mm1_domain_error(j, x[j], mu_e);
    actual += x[j] / de;
    if (j == agent) cost_e = x[j] / de;
  }
  const double loo = rule == PaymentRule::kNoPayment
                         ? 0.0
                         : lbmv::alloc::mm1_optimal_latency(rest, rate);
  const double comp = x[agent] / (mus[agent] - x[agent]);
  switch (rule) {
    case PaymentRule::kCompBonusExecution:
      return loo - actual;
    case PaymentRule::kCompBonusBid:
      return comp + (loo - actual) - cost_e;
    case PaymentRule::kVcg:
      return (loo - (solve.optimal_latency - comp)) - cost_e;
    case PaymentRule::kNoPayment:
    case PaymentRule::kArcherTardos:
      break;
  }
  return -cost_e;
}

/// Active count of the optimum over \p mus at \p rate.
std::size_t mm1_active(std::span<const double> mus, double rate) {
  std::vector<double> x(mus.size());
  return lbmv::alloc::mm1_solve_into(mus, rate, x).active;
}

/// An arrival rate whose optimum keeps exactly the m fastest of \p thetas
/// active: c(m) sits halfway between the m-th and (m+1)-th sqrt rate, or at
/// 0.9 of the slowest one when m = n (light enough that every rest set can
/// absorb it).
double rate_for_active(std::vector<double> thetas, std::size_t m) {
  std::sort(thetas.begin(), thetas.end());  // fastest first
  double sum_mu = 0.0;
  double sum_a = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    sum_mu += 1.0 / thetas[k];
    sum_a += std::sqrt(1.0 / thetas[k]);
  }
  const double a_last = std::sqrt(1.0 / thetas[m - 1]);
  const double a_next =
      m < thetas.size() ? std::sqrt(1.0 / thetas[m]) : 0.8 * a_last;
  return sum_mu - 0.5 * (a_last + a_next) * sum_a;
}

/// what() of the PreconditionError \p fn throws ("" if none).
template <class Fn>
std::string precondition_what(Fn fn) {
  try {
    fn();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

struct IdleProfile {
  std::string label;
  std::vector<double> thetas;
  double rate;
};

std::vector<IdleProfile> idle_profiles() {
  std::vector<IdleProfile> profiles;
  // Distinct mean service times in [0.1, 1]: mu spans a decade.
  const std::size_t n = 24;
  std::vector<double> spread(n);
  lbmv::util::Rng rng(41);
  for (double& t : spread) t = std::exp(rng.uniform(std::log(0.1), 0.0));
  for (double idle : {0.0, 0.3, 0.6, 0.9}) {
    const auto active = static_cast<std::size_t>(
        std::lround((1.0 - idle) * static_cast<double>(n)));
    profiles.push_back({"idle " + std::to_string(idle), spread,
                        rate_for_active(spread, active)});
  }
  // Ties: three groups of equal rates, the threshold between the first two
  // groups, and every rate active.
  const std::vector<double> tied{0.2, 0.2, 0.2, 0.4, 0.4, 0.4, 0.4, 0.8, 0.8};
  profiles.push_back({"tied", tied, rate_for_active(tied, 3)});
  profiles.push_back({"tied all active", tied, rate_for_active(tied, 9)});
  // n = 2: one idle, and both barely active.
  profiles.push_back({"n=2 idle", {1.0, 4.0}, 0.2});
  profiles.push_back({"n=2 active", {1.0, 1.5}, 0.2});
  return profiles;
}

TEST(Mm1IdleQuery, MatchesResolveAndMechanismRunAcrossIdleShares) {
  const MM1Family family;
  const auto allocator = std::make_shared<const lbmv::alloc::MM1Allocator>();
  const PaymentRule rules[] = {
      PaymentRule::kCompBonusExecution, PaymentRule::kCompBonusBid,
      PaymentRule::kVcg, PaymentRule::kNoPayment};
  const auto mechanisms = family_mechanisms(allocator);
  RoundWorkspace ws;
  MechanismOutcome out;
  std::size_t deviator_flips = 0;
  std::size_t neighbour_flips = 0;
  std::size_t idle_queries = 0;
  std::size_t full_rounds = 0;
  std::size_t queries = 0;
  for (const IdleProfile& p : idle_profiles()) {
    const std::size_t n = p.thetas.size();
    const BidProfile base{p.thetas, p.thetas};
    std::vector<double> mus(n);
    for (std::size_t j = 0; j < n; ++j) mus[j] = 1.0 / p.thetas[j];
    std::vector<double> x_base(n);
    const std::size_t base_active =
        lbmv::alloc::mm1_solve_into(mus, p.rate, x_base).active;
    for (std::size_t r = 0; r < 4; ++r) {
      const Mm1PrProfileContext ctx(rules[r], p.rate, base);
      for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> bids;
        for (double m : {0.2, 0.5, 0.8, 0.95, 1.0, 1.05, 1.3, 2.0, 4.0, 10.0,
                         100.0}) {
          bids.push_back(m * p.thetas[i]);
        }
        // Every opponent's rate: ties broken by index at insertion.
        for (double t : p.thetas) bids.push_back(t);
        for (double bid : bids) {
          for (double slack : {1.0, 1.1}) {
            const double execution = slack * bid;
            const std::string where = p.label + " rule " + std::to_string(r) +
                                      " agent " + std::to_string(i) +
                                      " bid " + std::to_string(bid) +
                                      " exec " + std::to_string(execution);
            double oracle = 0.0;
            const std::string oracle_what = precondition_what([&] {
              oracle = mm1_resolve_utility(rules[r], p.rate, base, i, bid,
                                           execution);
            });
            double got = 0.0;
            const std::string got_what = precondition_what(
                [&] { got = ctx.utility(i, bid, execution); });
            EXPECT_EQ(got_what, oracle_what) << where;
            ++queries;
            if (!oracle_what.empty()) continue;
            EXPECT_LE(rel_err(got, oracle), 1e-12)
                << where << ": " << got << " vs " << oracle;

            // A full round also needs every other agent's leave-one-out at
            // the deviated profile, which a very slow deviator can make
            // infeasible; the deviator's own utility is still defined.
            std::vector<double> bids_dev = base.bids;
            std::vector<double> execs_dev = base.executions;
            bids_dev[i] = bid;
            execs_dev[i] = execution;
            if (precondition_what([&] {
                  mechanisms[r]->run_into(family, p.rate, bids_dev, execs_dev,
                                          out, ws);
                }).empty()) {
              ++full_rounds;
              EXPECT_LE(rel_err(got, out.agents[i].utility), 1e-9) << where;
            }

            std::vector<double> mus_dev = mus;
            mus_dev[i] = 1.0 / bid;
            std::vector<double> x(n);
            const std::size_t active =
                lbmv::alloc::mm1_solve_into(mus_dev, p.rate, x).active;
            if (active < n) ++idle_queries;
            if ((x_base[i] > 0.0) != (x[i] > 0.0)) ++deviator_flips;
            if (active != base_active && (x_base[i] > 0.0) == (x[i] > 0.0)) {
              ++neighbour_flips;
            }
          }
        }
      }
    }
  }
  // The sweep reached every corner the sorted-prefix query serves.
  EXPECT_GT(idle_queries, queries / 2);
  EXPECT_GT(deviator_flips, 0u);
  EXPECT_GT(neighbour_flips, 0u);
  EXPECT_GT(full_rounds, queries * 3 / 4);
}

TEST(Mm1IdleQuery, ResolveGatesKeepTheirExactMessages) {
  // Inconsistent rest: computer 3 executes slower than it bid, so every
  // other agent's query re-solves; results and errors match the oracle.
  const std::vector<double> thetas{0.1, 0.15, 0.3, 0.5, 0.9, 1.0};
  BidProfile inconsistent{thetas, thetas};
  inconsistent.executions[3] = 0.55;
  const double rate = rate_for_active(thetas, 3);
  for (PaymentRule rule :
       {PaymentRule::kCompBonusExecution, PaymentRule::kVcg}) {
    const Mm1PrProfileContext ctx(rule, rate, inconsistent);
    for (std::size_t i : {0u, 1u, 4u}) {
      for (double m : {0.3, 1.0, 3.0}) {
        for (double e : {1.0, 10.0}) {  // 10x: an execution overload
          const double bid = m * thetas[i];
          double oracle = 0.0;
          const std::string oracle_what = precondition_what([&] {
            oracle = mm1_resolve_utility(rule, rate, inconsistent, i, bid,
                                         e * bid);
          });
          double got = 0.0;
          EXPECT_EQ(
              precondition_what([&] { got = ctx.utility(i, bid, e * bid); }),
              oracle_what);
          if (oracle_what.empty()) {
            EXPECT_LE(rel_err(got, oracle), 1e-12);
          }
        }
      }
    }
  }

  // Execution overload on the sorted-prefix path (consistent rest, idle
  // servers): the deviator names itself, with the re-solve's message.
  const Mm1PrProfileContext idle(PaymentRule::kCompBonusExecution, rate,
                                 BidProfile{thetas, thetas});
  const std::string overload = precondition_what(
      [&] { (void)idle.utility(2, 0.05, 1.0); });
  EXPECT_NE(overload.find("computer 2 "), std::string::npos) << overload;
  EXPECT_EQ(overload, precondition_what([&] {
              (void)mm1_resolve_utility(PaymentRule::kCompBonusExecution,
                                        rate, BidProfile{thetas, thetas}, 2,
                                        0.05, 1.0);
            }));

  // Saturation and near-saturation (no leave-one-out guard under
  // no-payment, so the rest set alone may be short of R): the deviated
  // profile's own solve owns the message.
  const std::vector<double> strong{0.1, 1.0, 1.0};  // mu = 10, 1, 1
  const Mm1PrProfileContext no_pay(PaymentRule::kNoPayment, 5.0,
                                   BidProfile{strong, strong});
  for (double mu_dev : {2.0, 3.0 * (1.0 + 1e-12)}) {
    std::vector<double> mus{mu_dev, 1.0, 1.0};
    std::vector<double> x(3);
    const std::string solve_what = precondition_what(
        [&] { (void)lbmv::alloc::mm1_solve_into(mus, 5.0, x); });
    ASSERT_FALSE(solve_what.empty()) << mu_dev;
    EXPECT_EQ(precondition_what(
                  [&] { (void)no_pay.utility(0, 1.0 / mu_dev, 1.0 / mu_dev); }),
              solve_what);
  }
}

// ---------------------------------------------------------------------------
// Workload Newton vs long-double bisection oracle.

double bisection_max_rel_err(std::span<const double> thetas, double gamma,
                             double arrival_rate,
                             std::span<const double> newton_rates) {
  const long double lambda = lbmv_test::workload_bisection_lambda(
      thetas, gamma, arrival_rate, thetas.size());
  double max_err = 0.0;
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const long double oracle =
        lbmv_test::workload_rate(lambda, thetas[i], gamma);
    max_err = std::max(
        max_err,
        static_cast<double>(
            std::fabs(static_cast<long double>(newton_rates[i]) - oracle) /
            std::fmax(1.0L, std::fabs(oracle))));
  }
  return max_err;
}

TEST(WorkloadNewton, MatchesLongDoubleBisectionOracle) {
  for (std::size_t n : {2u, 5u, 64u, 257u}) {
    for (double gamma : {0.1, 0.5, 2.0}) {
      const auto thetas = narrow_types(n, 31 * n + 7);
      for (double rate : {0.5, static_cast<double>(n), 10.0 * n}) {
        std::vector<double> rates(n);
        const lbmv::alloc::WorkloadSolve solve =
            lbmv::alloc::workload_solve_into(thetas, gamma, rate, rates);
        EXPECT_LE(solve.iterations, lbmv::alloc::kWorkloadNewtonMaxIters);
        EXPECT_LE(bisection_max_rel_err(thetas, gamma, rate, rates), 1e-9)
            << "n=" << n << " gamma=" << gamma << " R=" << rate;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fused vs reference differential across rules, families, and lane tails.

TEST(FusedDifferential, Mm1FusedRoundsMatchReferencePath) {
  const MM1Family family;
  const auto allocator = std::make_shared<const lbmv::alloc::MM1Allocator>();
  RoundWorkspace ws;
  MechanismOutcome fused;
  MechanismOutcome generic;
  for (std::size_t n : {2u, 5u, 64u, 257u}) {  // covers every lane tail
    const auto thetas = narrow_types(n, 17 * n + 1);
    auto execs = thetas;
    for (double& e : execs) e *= 1.05;
    const double rate = feasible_rate(thetas);
    for (const auto& mechanism : family_mechanisms(allocator)) {
      mechanism->run_reference_into(family, rate, thetas, execs, generic,
                                    ws);
      // The engine itself, which must serve the round: through run_into a
      // decline would compare the reference path against itself.
      EXPECT_TRUE(lbmv::core::run_mm1_vectorized(
          mechanism->payment_rule(), rate, thetas, execs, fused, ws))
          << mechanism->name() << " n=" << n << " declined";
      EXPECT_LE(outcome_rel_err(fused, generic), 1e-9)
          << mechanism->name() << " n=" << n;
    }
  }
}

TEST(FusedDifferential, WorkloadFusedRoundsMatchReferencePath) {
  const WorkloadFamily family(0.5);
  const auto allocator =
      std::make_shared<const lbmv::alloc::WorkloadAllocator>();
  RoundWorkspace ws;
  MechanismOutcome fused;
  MechanismOutcome generic;
  for (std::size_t n : {2u, 5u, 64u, 257u}) {
    const auto thetas = narrow_types(n, 23 * n + 5);
    auto execs = thetas;
    for (double& e : execs) e *= 1.4;
    const double rate = static_cast<double>(n);
    for (const auto& mechanism : family_mechanisms(allocator)) {
      mechanism->run_reference_into(family, rate, thetas, execs, generic,
                                    ws);
      lbmv::core::FusedRoundStats stats;
      EXPECT_TRUE(lbmv::core::run_workload_vectorized(
          family, mechanism->payment_rule(), rate, thetas, execs, fused, ws,
          stats))
          << mechanism->name() << " n=" << n << " declined";
      EXPECT_LE(outcome_rel_err(fused, generic), 1e-9)
          << mechanism->name() << " n=" << n;
    }
  }
}

TEST(FusedDifferential, InvalidInputsThrowScalarDiagnostics) {
  // The nonlinear rows of SimdKernels.InvalidInputsThrowScalarDiagnostics:
  // one shared input check names the agent on both paths, and finite
  // inputs never publish a non-finite outcome.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const MM1Family mm1;
  const WorkloadFamily workload(0.5);
  const struct {
    const lbmv::model::LatencyFamily* family;
    std::shared_ptr<const lbmv::alloc::Allocator> allocator;
    double rate;
  } cases[] = {
      {&mm1, std::make_shared<const lbmv::alloc::MM1Allocator>(), 0.0},
      {&workload, std::make_shared<const lbmv::alloc::WorkloadAllocator>(),
       9.0},
  };
  const auto thetas = narrow_types(9, 41);
  RoundWorkspace ws;
  MechanismOutcome out;
  for (const auto& c : cases) {
    const double rate = c.rate > 0.0 ? c.rate : feasible_rate(thetas);
    for (const auto& mechanism : family_mechanisms(c.allocator)) {
      const auto expect_throw = [&](double r, std::vector<double> bids,
                                    std::vector<double> execs,
                                    const std::string& needle) {
        for (Path path : {Path::kReference, Path::kDispatched}) {
          try {
            run_path(path, *mechanism, *c.family, r, bids, execs, out, ws);
            ADD_FAILURE() << mechanism->name() << ": expected " << needle;
          } catch (const PreconditionError& e) {
            EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
                << mechanism->name() << ": " << e.what();
          }
        }
      };
      auto bad = thetas;
      bad[4] = -1.0;
      expect_throw(rate, bad, thetas,
                   "bids must be positive and finite (agent 4)");
      expect_throw(rate, thetas, bad,
                   "execution values must be positive and finite (agent 4)");
      bad[4] = kInf;
      expect_throw(rate, bad, thetas, "(agent 4)");
      bad = thetas;
      bad[8] = kInf;  // the lane past the last full vector
      expect_throw(rate, thetas, bad, "(agent 8)");
      bad[8] = std::numeric_limits<double>::quiet_NaN();
      expect_throw(rate, thetas, bad, "(agent 8)");
      expect_throw(kInf, thetas, thetas,
                   "arrival rate must be positive and finite");
    }
  }
  // A finite but astronomically large arrival rate overflows the workload
  // rates: the reference path rejects the allocation, and the fused engine
  // must decline to it rather than publish non-finite payments.
  const auto allocator =
      std::make_shared<const lbmv::alloc::WorkloadAllocator>();
  for (const auto& mechanism : family_mechanisms(allocator)) {
    lbmv::core::FusedRoundStats stats;
    EXPECT_FALSE(lbmv::core::run_workload_vectorized(
        workload, mechanism->payment_rule(), 1e300, thetas, thetas, out, ws,
        stats))
        << mechanism->name();
    for (Path path : {Path::kReference, Path::kDispatched}) {
      EXPECT_THROW(
          run_path(path, *mechanism, workload, 1e300, thetas, thetas, out, ws),
          PreconditionError)
          << mechanism->name();
    }
  }
}

// ---------------------------------------------------------------------------
// M/M/1 sweeps: bit-identical to the scalar oracle.

TEST(Mm1Grid, SweepBitIdenticalToScalarOracle) {
  const std::size_t n = 9;
  // All active at 40 % load; at 10 % load over a decade of rates about half
  // the servers idle.
  std::vector<double> spread(n);
  for (std::size_t j = 0; j < n; ++j) {
    spread[j] = std::pow(10.0, -static_cast<double>(j) / (n - 1.0));
  }
  const std::vector<SystemConfig> configs{
      SystemConfig(narrow_types(n, 3), 0.4 * sum_mu(narrow_types(n, 3)),
                   std::make_shared<const MM1Family>()),
      SystemConfig(spread, 0.1 * sum_mu(spread),
                   std::make_shared<const MM1Family>())};
  for (const SystemConfig& config : configs) {
    std::vector<double> mus(n);
    for (std::size_t j = 0; j < n; ++j) mus[j] = 1.0 / config.true_value(j);
    SCOPED_TRACE("active " +
                 std::to_string(mm1_active(mus, config.arrival_rate())));
    const CompBonusMechanism mechanism(
        std::make_shared<const lbmv::alloc::MM1Allocator>());
    const auto context = mechanism.make_profile_context(
        config.family(), config.arrival_rate(),
        lbmv::model::BidProfile::truthful(config));
    ASSERT_NE(
        dynamic_cast<const lbmv::core::Mm1PrProfileContext*>(context.get()),
        nullptr);
    ASSERT_FALSE(context->lane_sweeps());

    for (std::size_t agent = 0; agent < n; ++agent) {
      const double truth = config.true_value(agent);
      // Wide grid: interior candidates keep every server active while very
      // slow bids (8x truth) drop the deviator out of the active set; both
      // take the edited-order query and the sweep must match it bit for
      // bit.  The fast edge stays at 0.9x truth: faster bids win an
      // assignment beyond the agent's true capacity, where the domain
      // REQUIRE fires (covered by Mm1Boundary).
      for (std::size_t points : {2u, 6u, 103u}) {
        const std::vector<double> bids = lbmv::strategy::make_bid_grid(
            0.9 * truth, 8.0 * truth, points,
            lbmv::strategy::GridSpacing::kLinear);
        std::vector<double> fast(points);
        context->utilities_into(agent, bids, truth, fast);
        double best_u = context->utility(agent, bids[0], truth);
        std::size_t best_k = 0;
        for (std::size_t k = 0; k < points; ++k) {
          const double oracle = context->utility(agent, bids[k], truth);
          EXPECT_EQ(fast[k], oracle)  // bit-identical, not just close
              << "agent " << agent << " candidate " << k;
          if (oracle > best_u) {
            best_u = oracle;
            best_k = k;
          }
        }
        const lbmv::core::GridBest best =
            context->best_response(agent, bids, truth);
        EXPECT_EQ(best.index, best_k);
        EXPECT_EQ(best.utility, best_u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// audit_all: both families truthful-dominant, grids bit-identical parallel
// vs serial.

TEST(FamilyAudit, Mm1AuditAllTruthfulDominantAndThreadInvariant) {
  const SystemConfig config({0.1, 0.1, 0.2, 0.5, 0.5}, 12.0,
                            std::make_shared<const MM1Family>());
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::MM1Allocator>());
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions serial;
  serial.bid_multipliers = {0.85, 0.9, 1.0, 1.2, 1.5, 2.0, 3.0};
  serial.exec_multipliers = {1.0, 1.1, 1.2};
  serial.parallel = false;
  serial.keep_grid = true;
  lbmv::core::AuditOptions parallel = serial;
  parallel.parallel = true;

  const auto serial_reports = auditor.audit_all(config, serial);
  const auto parallel_reports = auditor.audit_all(config, parallel);
  ASSERT_EQ(serial_reports.size(), config.size());
  for (std::size_t i = 0; i < serial_reports.size(); ++i) {
    EXPECT_TRUE(serial_reports[i].truthful_dominant(1e-6))
        << "agent " << i << " gains " << serial_reports[i].max_gain;
    ASSERT_EQ(serial_reports[i].grid.size(), parallel_reports[i].grid.size());
    for (std::size_t k = 0; k < serial_reports[i].grid.size(); ++k) {
      EXPECT_EQ(serial_reports[i].grid[k].utility,
                parallel_reports[i].grid[k].utility)
          << "agent " << i << " grid point " << k;
    }
  }
}

TEST(FamilyAudit, WorkloadAuditAllTruthfulDominantAndThreadInvariant) {
  const SystemConfig config({0.2, 0.3, 0.5, 0.8}, 6.0,
                            std::make_shared<const WorkloadFamily>(0.5));
  const CompBonusMechanism mechanism(
      std::make_shared<const lbmv::alloc::WorkloadAllocator>());
  const lbmv::core::TruthfulnessAuditor auditor(mechanism);
  lbmv::core::AuditOptions serial;
  serial.bid_multipliers = {0.5, 0.8, 1.0, 1.3, 2.0};
  serial.exec_multipliers = {1.0, 1.5};
  serial.parallel = false;
  serial.keep_grid = true;
  lbmv::core::AuditOptions parallel = serial;
  parallel.parallel = true;

  const auto serial_reports = auditor.audit_all(config, serial);
  const auto parallel_reports = auditor.audit_all(config, parallel);
  for (std::size_t i = 0; i < serial_reports.size(); ++i) {
    EXPECT_TRUE(serial_reports[i].truthful_dominant(1e-6))
        << "agent " << i << " gains " << serial_reports[i].max_gain;
    for (std::size_t k = 0; k < serial_reports[i].grid.size(); ++k) {
      EXPECT_EQ(serial_reports[i].grid[k].utility,
                parallel_reports[i].grid[k].utility)
          << "agent " << i << " grid point " << k;
    }
  }
}

}  // namespace
